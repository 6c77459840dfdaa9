//! Ablation: **elastic replicated provider topology** on the paper's
//! Query2 chain.
//!
//! The paper's §V optimum-fanout argument assumes a *static* provider.
//! This harness scales the chaos-targeted leaf (`GetPlacesInside`) out
//! into a three-replica [`wsmed_netsim::ReplicaGroup`], scripts membership
//! churn against the charged model clock, and checks that the client-side
//! router plus the re-arming `AFF_APPLYP` track the **moving** optimum.
//!
//! Claims asserted in-binary:
//!
//! * **moving optimum** — with a scripted flap (both extra replicas leave
//!   at ~30% of the calibrated charged model time and rejoin at ~60%), a
//!   re-arming adaptive run (`rearm_factor`) records at least one `rearm`
//!   cycle verdict, the adapting node's fanout shrinks after the first
//!   re-arm, and the tree grows again after the last one — all read from
//!   the trace's cycle-decision projection. No rows are lost to the churn.
//! * **breaker scope** — under a sustained outage on one replica only, a
//!   hair-trigger per-replica breaker opens on that replica and on no
//!   other, routed retries fail over to healthy replicas
//!   (`RouterStats::failovers`), and the run returns the full fault-free
//!   row multiset with zero skipped parameters: one replica's open breaker
//!   never sheds the group.
//! * **routing policy** — on a heterogeneous group (two slow, small
//!   extras), least-in-flight routing strictly beats uniform random
//!   routing on open-loop p95 latency at the same seeded workload.
//! * **determinism** — two same-seed scale-0 runs of the routed central
//!   plan under the same topology scenario produce byte-identical
//!   routing/membership trace projections and row counts.
//!
//! ```text
//! cargo run --release -p wsmed-bench -- topology_ablation --small
//! ```

use std::sync::Arc;

use wsmed_bench::{csv_row, csv_writer, emit_bench_section, json_num, HarnessOpts};
use wsmed_core::{
    obs, paper, AdaptEvent, AdaptiveConfig, BreakerPolicy, ExecutionReport, FailureMode,
    QuotaPolicy, ResiliencePolicy, RouterPolicy, TraceEventKind, TracePolicy,
};
use wsmed_netsim::{FaultSpec, ProviderSpec, ReplicaGroup, TopologyAction, TopologyScenario};
use wsmed_services::{calibration, DatasetConfig, ZipCodesService};
use wsmed_store::canonicalize;
use wsmed_trafficgen::{
    replay, ArrivalProfile, LoadReport, SubsystemCounters, Workload, WorkloadSpec,
};

use super::{discover_fanouts, UNFILTERED_QUERY2_SQL};

/// The replicated provider: Query2's leaf, one call per zip code.
const LEAF: &str = ZipCodesService::PROVIDER;

/// An extra leaf replica: the calibrated spec, renamed, with capacity and
/// a latency slowdown factor chosen per experiment.
fn extra_spec(i: usize, capacity: usize, slow: f64) -> ProviderSpec {
    let base = calibration::zipcodes_spec();
    let mut latency = base.default_latency;
    latency.setup *= slow;
    latency.server_mean *= slow;
    ProviderSpec::new(format!("{LEAF}#{i}"), capacity, latency)
        .with_congestion_exponent(base.congestion_exponent)
}

/// Two healthy extras, bigger than the primary (capacity 4 each vs 3):
/// the elastic pool whose departure visibly moves the optimum.
fn healthy_extras() -> Vec<ProviderSpec> {
    vec![extra_spec(1, 4, 1.0), extra_spec(2, 4, 1.0)]
}

/// Two slow, small extras for the routing-policy arm: random routing
/// sends two thirds of the leaf traffic into 4×-slower replicas.
fn slow_extras() -> Vec<ProviderSpec> {
    vec![extra_spec(1, 2, 4.0), extra_spec(2, 2, 4.0)]
}

/// Builds the paper world, scales the leaf out into a replica group, and
/// installs the client-side router (reseeding planner profiles so the
/// cost model sees the pooled capacity).
fn routed_setup(
    scale: f64,
    dataset: DatasetConfig,
    extras: Vec<ProviderSpec>,
    policy: RouterPolicy,
) -> (paper::PaperSetup, Arc<ReplicaGroup>) {
    let setup = paper::setup(scale, dataset);
    let group = setup
        .network
        .replicate(LEAF, extras)
        .expect("leaf provider replicates");
    setup.wsmed.set_router_policy(Some(policy));
    setup.wsmed.reseed_profiles();
    (setup, group)
}

// ---- claim 1: the adaptive operator tracks a moving optimum ------------

fn moving_optimum(opts: &HarnessOpts, csv: &mut std::fs::File) -> String {
    println!("-- moving optimum: flap both extra replicas mid-run --");
    let config = AdaptiveConfig {
        drop_enabled: true,
        rearm_factor: Some(0.5),
        ..Default::default()
    };

    // Calibration pass on the healthy elastic pool: learn the total
    // charged model time T, so scenario instants can be placed at work
    // fractions (the charged clock advances with calls, not wall time).
    let (setup, _group) = routed_setup(
        opts.scale,
        opts.dataset(),
        healthy_extras(),
        RouterPolicy::LeastInFlight,
    );
    let plan = setup
        .wsmed
        .compile_adaptive(UNFILTERED_QUERY2_SQL, &config)
        .expect("adaptive plan compiles");
    let charged_before = setup.network.model_time();
    let (result, _) = setup.wsmed.execute_traced(&plan);
    let baseline = result.expect("calibration run completes");
    let total_charged = setup.network.model_time() - charged_before;
    let reference = canonicalize(baseline.rows.clone());
    println!(
        "  calibration: {} rows, {:.1} charged model-s on the healthy pool",
        reference.len(),
        total_charged
    );

    // Scenario pass: both extras leave at 30% of the charged total and
    // rejoin at 60% — capacity 11 → 3 → 11.
    let leave_at = 0.30 * total_charged;
    let rejoin_at = 0.60 * total_charged;
    let scenario = TopologyScenario::new("elastic-flap")
        .at(
            leave_at,
            TopologyAction::Leave {
                replica: format!("{LEAF}#1"),
            },
        )
        .at(
            leave_at,
            TopologyAction::Leave {
                replica: format!("{LEAF}#2"),
            },
        )
        .at(
            rejoin_at,
            TopologyAction::Rejoin {
                replica: format!("{LEAF}#1"),
            },
        )
        .at(
            rejoin_at,
            TopologyAction::Rejoin {
                replica: format!("{LEAF}#2"),
            },
        );
    let (mut setup, group) = routed_setup(
        opts.scale,
        opts.dataset(),
        healthy_extras(),
        RouterPolicy::LeastInFlight,
    );
    setup.wsmed.set_trace_policy(TracePolicy::enabled());
    group.install_scenario(scenario);
    let plan = setup
        .wsmed
        .compile_adaptive(UNFILTERED_QUERY2_SQL, &config)
        .expect("adaptive plan compiles");
    let (result, trace) = setup.wsmed.execute_traced(&plan);
    let report = result.expect("scenario run completes");
    let trace = trace.expect("traced run yields a log");
    let events = trace.events();
    let violations = obs::validate(&events);
    assert!(
        violations.is_empty(),
        "topology trace violates invariants: {violations:?}"
    );

    // Rows survive the churn: leave is a graceful drain, not an outage.
    assert_eq!(
        canonicalize(report.rows.clone()),
        reference,
        "membership churn must not change the result multiset"
    );
    assert!(
        report.router.membership_events >= 2,
        "the flap must surface membership events while routing (saw {})",
        report.router.membership_events
    );

    // The headline: read the moving-optimum story out of the trace's
    // cycle-decision projection.
    let cycles = obs::cycle_decisions(&events);
    for (i, c) in cycles.iter().enumerate() {
        csv_row(
            csv,
            &format!(
                "moving_optimum,node{}:cycle{i},alive={} verdict={} per_tuple_model_s={:.4}",
                c.process,
                c.alive,
                c.decision,
                c.per_tuple_secs / opts.scale
            ),
        );
        if opts.verbose {
            println!(
                "    cycle {i:>3} node {:>2} alive {:>2} per-tuple {:>8.4} model-s  {}",
                c.process,
                c.alive,
                c.per_tuple_secs / opts.scale,
                c.decision
            );
        }
    }
    let rearm_idx: Vec<usize> = cycles
        .iter()
        .enumerate()
        .filter(|(_, c)| c.decision == "rearm")
        .map(|(i, _)| i)
        .collect();
    assert!(
        !rearm_idx.is_empty(),
        "the flap must re-arm at least one converged AFF_APPLYP \
         ({} cycles, none re-armed)",
        cycles.len()
    );
    let first = rearm_idx[0];
    let node = cycles[first].process;
    fn node_cycles(range: &[AdaptEvent], node: u64) -> Vec<&AdaptEvent> {
        range.iter().filter(|c| c.process == node).collect()
    }
    let pre_peak = node_cycles(&cycles[..=first], node)
        .iter()
        .map(|c| c.alive)
        .max()
        .expect("the re-arming node has cycles");
    let post = node_cycles(&cycles[first + 1..], node);
    let post_trough = post.iter().map(|c| c.alive).min().unwrap_or(pre_peak);
    assert!(
        post_trough < pre_peak,
        "fanout must shrink after the re-arm (peak {pre_peak} before, \
         trough {post_trough} after)"
    );
    // After the *last* re-arm on that node, the tree must grow again —
    // the recovered pool supports a wider optimum than the reset width.
    let last = *rearm_idx
        .iter()
        .rfind(|&&i| cycles[i].process == node)
        .expect("first re-arm is on this node");
    let tail = node_cycles(&cycles[last + 1..], node);
    let regrew = tail.iter().any(|c| c.decision.starts_with("add:"));
    assert!(
        regrew,
        "the tree must grow again after the last re-arm \
         ({} tail cycles on node {node}, no add stage)",
        tail.len()
    );
    println!(
        "  {} cycle(s), {} re-arm(s) on node {node}; alive peak {pre_peak} \
         -> trough {post_trough} -> re-grown; {} membership event(s)\n",
        cycles.len(),
        rearm_idx.len(),
        report.router.membership_events
    );
    format!(
        "{{\"charged_model_secs_calibration\": {}, \"leave_at\": {}, \
         \"rejoin_at\": {}, \"cycles\": {}, \"rearms\": {}, \
         \"pre_rearm_peak_alive\": {pre_peak}, \
         \"post_rearm_trough_alive\": {post_trough}, \"regrew\": true, \
         \"membership_events\": {}}}",
        json_num(total_charged),
        json_num(leave_at),
        json_num(rejoin_at),
        cycles.len(),
        rearm_idx.len(),
        report.router.membership_events
    )
}

// ---- claim 2: per-replica breakers never shed the group ----------------

/// A sustained outage on one replica: down from the first call onward.
fn replica_outage() -> FaultSpec {
    FaultSpec {
        down_between: vec![(0.0, 1.0e9)],
        ..FaultSpec::default()
    }
}

/// Hair-trigger per-replica breaker under `Partial`: if the breaker were
/// group-scoped, this policy would shed most of the leaf calls.
fn failover_policy() -> ResiliencePolicy {
    ResiliencePolicy {
        max_attempts: 3,
        backoff_model_secs: 0.25,
        backoff_multiplier: 2.0,
        backoff_jitter_frac: 0.25,
        deadline_model_secs: Some(10.0),
        breaker: Some(BreakerPolicy {
            failure_threshold: 2,
            cooldown_model_secs: 50.0,
            half_open_probes: 1,
            probe_after_rejections: 64,
        }),
        hedge: None,
        failure_mode: FailureMode::Partial,
    }
}

fn breaker_scope(opts: &HarnessOpts, csv: &mut std::fs::File) -> String {
    println!("-- breaker scope: sustained outage on one replica of three --");
    let fanouts = discover_fanouts(opts, UNFILTERED_QUERY2_SQL, 4);

    let run = |faulty: bool| -> ExecutionReport {
        // Weighted routing: at scale 0 calls are instantaneous, so the
        // queue-depth signal least-in-flight keys on never builds up; the
        // capacity-strip walk spreads calls deterministically instead.
        let (mut setup, _group) = routed_setup(
            0.0,
            opts.dataset(),
            vec![extra_spec(1, 3, 1.0), extra_spec(2, 3, 1.0)],
            RouterPolicy::Weighted,
        );
        if faulty {
            setup
                .network
                .provider(&format!("{LEAF}#1"))
                .expect("extra replica registered")
                .set_fault(replica_outage());
            setup.wsmed.set_resilience_policy(failover_policy());
        }
        setup
            .wsmed
            .run_parallel(UNFILTERED_QUERY2_SQL, &fanouts)
            .expect("routed parallel run completes")
    };

    let reference = run(false);
    let reference_rows = canonicalize(reference.rows.clone());
    let spread = reference
        .router
        .per_replica
        .iter()
        .filter(|(_, n)| *n > 0)
        .count();
    assert!(
        reference.router.decisions > 0 && spread >= 2,
        "routing must spread leaf calls over the group \
         ({} decisions over {spread} replica(s))",
        reference.router.decisions
    );

    let outage = run(true);
    let outage_rows = canonicalize(outage.rows.clone());
    assert_eq!(
        outage_rows, reference_rows,
        "failover must recover every row despite the dead replica"
    );
    assert_eq!(
        outage.resilience.skipped_params, 0,
        "no parameter may be skipped while healthy replicas remain"
    );
    let faulty_replica = format!("{LEAF}#1");
    let mut opens_faulty = 0;
    let mut opens_healthy = 0;
    for ((group, replica), res) in &outage.resilience.per_replica {
        if group == LEAF {
            if *replica == faulty_replica {
                opens_faulty += res.breaker_opens;
            } else {
                opens_healthy += res.breaker_opens;
            }
        }
    }
    assert!(
        opens_faulty >= 1,
        "the dead replica's breaker must trip ({opens_faulty} opens)"
    );
    assert_eq!(
        opens_healthy, 0,
        "healthy replicas' breakers must stay closed"
    );
    assert!(
        outage.router.failovers > 0,
        "breaker rejections must fail over to healthy replicas"
    );
    // Satellite check: the group rollup equals the sum of its replicas.
    let rollup = outage
        .resilience
        .per_provider
        .iter()
        .find(|(name, _)| name == LEAF)
        .map(|(_, res)| res.breaker_opens)
        .unwrap_or(0);
    let replica_sum: u64 = outage
        .resilience
        .per_replica
        .iter()
        .filter(|((group, _), _)| group == LEAF)
        .map(|(_, res)| res.breaker_opens)
        .sum();
    assert_eq!(
        rollup, replica_sum,
        "group rollup must sum its replicas' breaker opens"
    );
    println!(
        "  {} rows recovered, {} retries, {} opens on {faulty_replica} \
         (0 elsewhere), {} failover(s)\n",
        outage_rows.len(),
        outage.resilience.retries,
        opens_faulty,
        outage.router.failovers
    );
    csv_row(
        csv,
        &format!(
            "breaker_scope,rows={} retries={} opens_faulty={opens_faulty} failovers={}",
            outage_rows.len(),
            outage.resilience.retries,
            outage.router.failovers
        ),
    );
    format!(
        "{{\"rows\": {}, \"retries\": {}, \"opens_faulty\": {opens_faulty}, \
         \"opens_healthy\": 0, \"failovers\": {}, \"skipped_params\": 0}}",
        outage_rows.len(),
        outage.resilience.retries,
        outage.router.failovers
    )
}

// ---- claim 3: least-in-flight beats random on p95 ----------------------

fn routing_p95(opts: &HarnessOpts, csv: &mut std::fs::File) -> String {
    println!("-- routing policy: open-loop p95 on a heterogeneous group --");
    let dataset = DatasetConfig::tiny();
    let states: Vec<String> = {
        let setup = paper::setup(0.0, dataset.clone());
        setup
            .dataset
            .states()
            .iter()
            .map(|s| s.abbr.clone())
            .collect()
    };
    let duration = 20.0;
    let rate = 1.2;
    let workload = Workload::generate(
        WorkloadSpec::standard(0x7090, ArrivalProfile::Poisson { rate }, duration),
        &states,
    );
    println!(
        "  {} injections over {duration} model s, two slow extras (4x)",
        workload.injections.len()
    );

    let run_arm = |policy: RouterPolicy| -> LoadReport {
        let (setup, _group) = routed_setup(opts.scale, dataset.clone(), slow_extras(), policy);
        setup.wsmed.set_quota_policy(QuotaPolicy {
            max_concurrent_queries: Some(6),
            ..Default::default()
        });
        let before = SubsystemCounters::collect(&setup.wsmed, &setup.network);
        let outcomes = replay(&setup.wsmed, &workload, opts.scale).expect("replay runs");
        let after = SubsystemCounters::collect(&setup.wsmed, &setup.network);
        LoadReport::build(
            policy.name(),
            &workload,
            &outcomes,
            opts.scale,
            after.since(&before),
        )
    };

    let mut arm_json = Vec::new();
    let mut p95 = std::collections::BTreeMap::new();
    for policy in [
        RouterPolicy::Random,
        RouterPolicy::Weighted,
        RouterPolicy::LeastInFlight,
        RouterPolicy::LocalityAware,
    ] {
        let report = run_arm(policy);
        let o = &report.overall;
        println!(
            "  {:>15}: p50 {:>7.3}  p95 {:>7.3}  goodput {:>5.2} q/s  ({} completed)",
            policy.name(),
            o.p50,
            o.p95,
            o.goodput_qps,
            o.completed
        );
        csv_row(
            csv,
            &format!(
                "routing_p95,{},p50={:.4} p95={:.4} goodput={:.3}",
                policy.name(),
                o.p50,
                o.p95,
                o.goodput_qps
            ),
        );
        arm_json.push(format!(
            "{{\"policy\": \"{}\", \"p50\": {}, \"p95\": {}, \"goodput_qps\": {}}}",
            policy.name(),
            json_num(o.p50),
            json_num(o.p95),
            json_num(o.goodput_qps)
        ));
        p95.insert(policy.name().to_owned(), o.p95);
    }
    let random = p95["random"];
    let least = p95["least-in-flight"];
    assert!(
        least < random,
        "least-in-flight p95 {least:.3} must strictly beat random p95 {random:.3} \
         on a heterogeneous group"
    );
    println!("  gate: least-in-flight p95 {least:.3} < random p95 {random:.3}\n");
    format!("{{\"arms\": [{}]}}", arm_json.join(", "))
}

// ---- claim 4: same-seed scenario runs are byte-identical ---------------

fn determinism(opts: &HarnessOpts) -> String {
    println!("-- determinism: same-seed routed runs under the same scenario --");
    // Calibrate the central plan's charged total so the scenario fires
    // mid-run, then project two identical runs at scale 0.
    let total_charged = {
        let (setup, _group) = routed_setup(
            0.0,
            opts.dataset(),
            healthy_extras(),
            RouterPolicy::Weighted,
        );
        let before = setup.network.model_time();
        setup
            .wsmed
            .run_central(UNFILTERED_QUERY2_SQL)
            .expect("central calibration completes");
        setup.network.model_time() - before
    };
    let project = || -> String {
        let (mut setup, group) = routed_setup(
            0.0,
            opts.dataset(),
            healthy_extras(),
            RouterPolicy::Weighted,
        );
        setup.wsmed.set_trace_policy(TracePolicy::enabled());
        group.install_scenario(
            TopologyScenario::new("det-mix")
                .at(
                    0.25 * total_charged,
                    TopologyAction::Leave {
                        replica: format!("{LEAF}#1"),
                    },
                )
                .at(
                    0.40 * total_charged,
                    TopologyAction::Leave {
                        replica: format!("{LEAF}#2"),
                    },
                )
                .at(
                    0.60 * total_charged,
                    TopologyAction::Rejoin {
                        replica: format!("{LEAF}#1"),
                    },
                ),
        );
        let plan = setup
            .wsmed
            .compile_central(UNFILTERED_QUERY2_SQL)
            .expect("central plan compiles");
        let (result, trace) = setup.wsmed.execute_traced(&plan);
        let report = result.expect("routed central run completes");
        let trace = trace.expect("traced run yields a log");
        let mut lines = Vec::new();
        for e in trace.events() {
            match &e.kind {
                TraceEventKind::RouteDecision {
                    group,
                    replica,
                    alternatives,
                } => lines.push(format!("route {group} {replica} {alternatives}")),
                TraceEventKind::Membership {
                    group,
                    replica,
                    joined,
                } => lines.push(format!("membership {group} {replica} {joined}")),
                TraceEventKind::ReplicaSkipped {
                    group,
                    replica,
                    reason,
                } => lines.push(format!("skipped {group} {replica} {reason}")),
                _ => {}
            }
        }
        lines.push(format!("rows {}", report.rows.len()));
        for ((group, replica), n) in &report.router.per_replica {
            lines.push(format!("decisions {group} {replica} {n}"));
        }
        lines.join("\n")
    };
    let first = project();
    let second = project();
    assert_eq!(
        first, second,
        "same-seed scenario runs must project byte-identically"
    );
    let lines = first.lines().count();
    println!("  two runs, {lines} projection line(s), byte-identical\n");
    format!("{{\"runs\": 2, \"identical\": true, \"projection_lines\": {lines}}}")
}

pub fn run(opts: &HarnessOpts) {
    opts.require_model_time();
    let (csv_path, mut csv) = csv_writer("topology_ablation.csv", "arm,label,detail");

    let mo = moving_optimum(opts, &mut csv);
    let bs = breaker_scope(opts, &mut csv);
    let rp = routing_p95(opts, &mut csv);
    let det = determinism(opts);

    let body = format!(
        "{{\"group\": \"{LEAF}\", \"replicas\": 3, \"moving_optimum\": {mo}, \
         \"breaker_scope\": {bs}, \"routing_p95\": {rp}, \"determinism\": {det}}}"
    );
    let json_path = emit_bench_section("BENCH_topology.json", "topology", Some(opts.scale), &body);
    println!(
        "all topology claims hold; CSV written to {}, summary merged into {}",
        csv_path.display(),
        json_path.display()
    );
}
