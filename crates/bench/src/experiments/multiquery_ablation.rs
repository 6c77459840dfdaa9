//! Ablation: the **concurrent multi-query mediator** — shared
//! infrastructure vs. sequential runs and vs. unshared mediators.
//!
//! A mediator serving a workload sees *overlapping* queries. This harness
//! poses K copies of a skewed dependent-join query (every parameter chain
//! collapses onto the same provider calls) three ways:
//!
//! * `sequential` — one mediator, K runs back to back;
//! * `concurrent` — one mediator, K runs on K threads sharing its call
//!   cache (cross-query single-flight), warm process pool and breaker
//!   table;
//! * `no-sharing` — K threads, each over its **own** mediator (the
//!   nothing-shared baseline).
//!
//! Claims asserted in-binary:
//! * every arm and run returns the same result multiset;
//! * the concurrent mediator issues **strictly fewer** real provider
//!   calls than the K no-sharing mediators combined (at any scale);
//! * cross-query single-flight actually fires: the K concurrent reports
//!   attribute > 0 cache hits to entries another query produced;
//! * at a non-zero time scale, the K-query concurrent makespan beats K
//!   sequential runs on model time.
//!
//! Writes `multiquery_ablation.csv` and the machine-readable
//! `BENCH_multiquery.json` under `target/experiments/`.
//!
//! ```text
//! cargo run --release -p wsmed-bench -- multiquery_ablation --small
//! ```

use std::sync::Barrier;
use std::time::Instant;

use wsmed_bench::{csv_row, csv_writer, emit_bench_section, json_num, HarnessOpts};
use wsmed_core::{paper, CachePolicy, ExecutionReport, FanoutVector};
use wsmed_store::{canonicalize, Tuple};

use super::{discover_fanouts, SKEWED_QUERY2_SQL};

/// Concurrent queries per arm.
const K: usize = 4;

/// One mediator wired for the experiment: default per-run call cache
/// (sharing across queries comes only from actual concurrency) and a warm
/// process pool.
fn mediator(opts: &HarnessOpts) -> paper::PaperSetup {
    let mut setup = opts.setup();
    setup.wsmed.set_cache_policy(Some(CachePolicy::default()));
    setup.wsmed.enable_process_pool(true);
    setup
}

struct ArmResult {
    label: &'static str,
    /// Wall seconds from first dispatch to last completion.
    makespan_wall: f64,
    /// Real calls that reached the simulated providers.
    provider_calls: u64,
    reports: Vec<ExecutionReport>,
}

impl ArmResult {
    fn makespan_model(&self, scale: f64) -> f64 {
        if scale > 0.0 {
            self.makespan_wall / scale
        } else {
            f64::NAN
        }
    }

    fn cross_query_hits(&self) -> u64 {
        self.reports.iter().map(|r| r.cache.cross_query_hits).sum()
    }
}

fn run_sequential(opts: &HarnessOpts, fanouts: &FanoutVector) -> ArmResult {
    let setup = mediator(opts);
    let plan = setup
        .wsmed
        .compile_parallel(SKEWED_QUERY2_SQL, fanouts)
        .expect("skewed query compiles");
    let calls_before = setup.network.total_metrics().calls;
    let t0 = Instant::now();
    let reports: Vec<ExecutionReport> = (0..K)
        .map(|_| setup.wsmed.execute(&plan).expect("sequential run"))
        .collect();
    ArmResult {
        label: "sequential",
        makespan_wall: t0.elapsed().as_secs_f64(),
        provider_calls: setup.network.total_metrics().calls - calls_before,
        reports,
    }
}

fn run_concurrent(opts: &HarnessOpts, fanouts: &FanoutVector) -> ArmResult {
    let setup = mediator(opts);
    let plan = setup
        .wsmed
        .compile_parallel(SKEWED_QUERY2_SQL, fanouts)
        .expect("skewed query compiles");
    let calls_before = setup.network.total_metrics().calls;
    // A loaded mediator's cache never goes idle; holding the busy period
    // open models that, so the K runs share entries even if the scheduler
    // happens to serialize them.
    let cache = setup.wsmed.call_cache().expect("cache enabled");
    cache.begin_run();
    let barrier = Barrier::new(K);
    let med = &setup.wsmed;
    let t0 = Instant::now();
    let (makespan_wall, reports) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..K)
            .map(|q| {
                let barrier = &barrier;
                let plan = &plan;
                scope.spawn(move || {
                    barrier.wait();
                    med.execute_for(&format!("tenant-{q}"), plan)
                        .expect("concurrent run")
                })
            })
            .collect();
        let reports: Vec<ExecutionReport> = handles
            .into_iter()
            .map(|h| h.join().expect("query thread panicked"))
            .collect();
        (t0.elapsed().as_secs_f64(), reports)
    });
    cache.end_run();
    ArmResult {
        label: "concurrent",
        makespan_wall,
        provider_calls: setup.network.total_metrics().calls - calls_before,
        reports,
    }
}

fn run_no_sharing(opts: &HarnessOpts, fanouts: &FanoutVector) -> ArmResult {
    let setups: Vec<paper::PaperSetup> = (0..K).map(|_| mediator(opts)).collect();
    let calls_before: u64 = setups.iter().map(|s| s.network.total_metrics().calls).sum();
    let barrier = Barrier::new(K);
    let t0 = Instant::now();
    let (makespan_wall, reports) = std::thread::scope(|scope| {
        let handles: Vec<_> = setups
            .iter()
            .map(|setup| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let plan = setup
                        .wsmed
                        .compile_parallel(SKEWED_QUERY2_SQL, fanouts)
                        .expect("skewed query compiles");
                    barrier.wait();
                    setup.wsmed.execute(&plan).expect("no-sharing run")
                })
            })
            .collect();
        let reports: Vec<ExecutionReport> = handles
            .into_iter()
            .map(|h| h.join().expect("query thread panicked"))
            .collect();
        (t0.elapsed().as_secs_f64(), reports)
    });
    let provider_calls: u64 = setups
        .iter()
        .map(|s| s.network.total_metrics().calls)
        .sum::<u64>()
        - calls_before;
    ArmResult {
        label: "no-sharing",
        makespan_wall,
        provider_calls,
        reports,
    }
}

pub fn run(opts: &HarnessOpts) {
    let fanouts = discover_fanouts(opts, SKEWED_QUERY2_SQL, 2);

    let arms = [
        run_sequential(opts, &fanouts),
        run_concurrent(opts, &fanouts),
        run_no_sharing(opts, &fanouts),
    ];

    let (path, mut csv) = csv_writer(
        "multiquery_ablation.csv",
        "arm,makespan_model_secs,provider_calls,cross_query_hits,rows_per_query",
    );
    for arm in &arms {
        println!(
            "  {:>10}: {:>7.1} model-s makespan, {:>4} provider call(s), \
             {:>4} cross-query hit(s)",
            arm.label,
            arm.makespan_model(opts.scale),
            arm.provider_calls,
            arm.cross_query_hits(),
        );
        csv_row(
            &mut csv,
            &format!(
                "{},{:.2},{},{},{}",
                arm.label,
                arm.makespan_model(opts.scale),
                arm.provider_calls,
                arm.cross_query_hits(),
                arm.reports[0].rows.len(),
            ),
        );
    }
    let [sequential, concurrent, no_sharing] = &arms;

    // ---- claims -----------------------------------------------------------
    let reference: Vec<Tuple> = canonicalize(sequential.reports[0].rows.clone());
    for arm in &arms {
        assert_eq!(arm.reports.len(), K);
        for (q, report) in arm.reports.iter().enumerate() {
            assert_eq!(
                canonicalize(report.rows.clone()),
                reference,
                "{} query {q} changed the result multiset",
                arm.label
            );
        }
    }

    assert!(
        concurrent.provider_calls < no_sharing.provider_calls,
        "shared mediator must issue strictly fewer real calls \
         ({} vs {} unshared)",
        concurrent.provider_calls,
        no_sharing.provider_calls
    );
    assert!(
        concurrent.cross_query_hits() > 0,
        "cross-query single-flight never fired across {K} identical queries"
    );
    if opts.scale > 0.0 {
        assert!(
            concurrent.makespan_wall < sequential.makespan_wall,
            "concurrent makespan {:.2}s must beat {K} sequential runs {:.2}s",
            concurrent.makespan_wall,
            sequential.makespan_wall
        );
    }

    let json = format!(
        "{{\"k\": {K}, \"scale\": {}, \
         \"sequential_makespan_model_secs\": {}, \
         \"concurrent_makespan_model_secs\": {}, \
         \"no_sharing_makespan_model_secs\": {}, \
         \"concurrent_speedup_vs_sequential\": {}, \
         \"sequential_provider_calls\": {}, \
         \"concurrent_provider_calls\": {}, \
         \"no_sharing_provider_calls\": {}, \
         \"call_reduction_vs_no_sharing\": {}, \
         \"cross_query_hits\": {}}}",
        json_num(opts.scale),
        json_num(sequential.makespan_model(opts.scale)),
        json_num(concurrent.makespan_model(opts.scale)),
        json_num(no_sharing.makespan_model(opts.scale)),
        json_num(sequential.makespan_wall / concurrent.makespan_wall),
        sequential.provider_calls,
        concurrent.provider_calls,
        no_sharing.provider_calls,
        json_num(concurrent.provider_calls as f64 / no_sharing.provider_calls as f64),
        concurrent.cross_query_hits(),
    );
    let summary = emit_bench_section(
        "BENCH_multiquery.json",
        "multiquery",
        Some(opts.scale),
        &json,
    );

    println!(
        "\nall multi-query claims hold; CSV written to {}, summary to {}",
        path.display(),
        summary.display()
    );
}
