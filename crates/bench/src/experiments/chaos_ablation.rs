//! Ablation: **resilient transport under chaos** on the paper's Query2.
//!
//! The expanded chaos model injects, on the leaf `GetPlacesInside`
//! provider, prompt faults, hangs observable only through a deadline, and
//! an outage window on the provider's model clock. Four configurations run
//! the same parallel Query2:
//!
//! * `pristine`    — no chaos, default (plain) policy: the reference rows;
//! * `defaults`    — an explicitly installed but *inactive* fault spec and
//!   the default policy: must reproduce `pristine` exactly (the resilience
//!   layer is pay-for-what-you-use);
//! * `bare-chaos`  — chaos active, default policy: aborts on the first
//!   exhausted fault, or — if faults happen to spare it — stalls through
//!   full hang latencies;
//! * `resilient`   — chaos active; deadline, retries with jittered
//!   backoff, circuit breaker, hedged requests, and `Partial` degradation.
//!
//! Claims asserted in-binary:
//! * `defaults` returns the `pristine` row multiset with the same web
//!   service call count and an all-quiet [`wsmed_core::ResilienceStats`];
//! * `bare-chaos` errors out, or is charged ≥ 5× the resilient run's
//!   model time (hung calls pay their full stall latency);
//! * `resilient` completes, returns a subset of the `pristine` multiset
//!   with ≥ 95 % of the rows, any shortfall is accounted by
//!   `skipped_params`, and its total charged model time stays within 6×
//!   the pristine run (deadlines cap every hang);
//! * the resilient run's structured trace passes `obs::validate` and is
//!   written to `target/experiments/chaos_trace.jsonl` for
//!   `wsmed-bench check-trace`.
//!
//! ```text
//! cargo run --release -p wsmed-bench -- chaos_ablation --small --scale 0
//! ```

use wsmed_bench::{csv_row, csv_writer, write_experiment_file, HarnessOpts};
use wsmed_core::{
    obs, BreakerPolicy, FailureMode, FanoutVector, HedgePolicy, ResiliencePolicy, TracePolicy,
};
use wsmed_netsim::FaultSpec;
use wsmed_services::ZipCodesService;
use wsmed_store::{canonicalize, Tuple};

use super::{discover_fanouts, UNFILTERED_QUERY2_SQL};

/// The chaos-targeted provider: Query2's leaf, one call (and roughly one
/// result row) per zip code.
const LEAF: &str = ZipCodesService::PROVIDER;

/// The chaos the resilient configuration must absorb.
fn chaos_spec() -> FaultSpec {
    FaultSpec {
        // Args-keyed rolls: the failing argument tuples are fixed, so a
        // retry of the same tuple fails (or hangs) again — only `Partial`
        // degradation gets the query past them. The outage window is the
        // retryable part: it passes on the provider's model clock.
        fail_probability: 0.015,
        hang_probability: 0.01,
        down_between: vec![(3.0, 8.0)],
        keyed_by_args: true,
        ..FaultSpec::default()
    }
}

/// The resilient policy under test. The breaker threshold is high enough
/// that the short outage window never trips it: under `Partial` every
/// breaker rejection permanently drops a parameter, so shedding load
/// during a brief blip would trade rows for nothing. The sustained-outage
/// pair below uses a hair-trigger breaker where shedding genuinely pays.
fn resilient_policy() -> ResiliencePolicy {
    ResiliencePolicy {
        max_attempts: 4,
        backoff_model_secs: 0.5,
        backoff_multiplier: 2.0,
        backoff_jitter_frac: 0.25,
        deadline_model_secs: Some(10.0),
        breaker: Some(BreakerPolicy {
            failure_threshold: 40,
            cooldown_model_secs: 10.0,
            half_open_probes: 1,
            probe_after_rejections: 16,
        }),
        hedge: Some(HedgePolicy {
            delay_model_secs: 1.5,
        }),
        failure_mode: FailureMode::Partial,
    }
}

/// A sustained outage: the provider is down for most of the run. Retrying
/// into it only burns charged set-up costs; the breaker's job is to stop
/// paying them.
fn sustained_outage() -> FaultSpec {
    FaultSpec {
        down_between: vec![(2.0, 10_000.0)],
        ..FaultSpec::default()
    }
}

/// The shed-pair policy (with and without the hair-trigger breaker).
fn shed_policy(breaker: bool) -> ResiliencePolicy {
    ResiliencePolicy {
        max_attempts: 3,
        backoff_model_secs: 0.5,
        backoff_multiplier: 2.0,
        backoff_jitter_frac: 0.25,
        deadline_model_secs: Some(10.0),
        breaker: breaker.then_some(BreakerPolicy {
            failure_threshold: 5,
            cooldown_model_secs: 20.0,
            half_open_probes: 1,
            probe_after_rejections: 32,
        }),
        hedge: None,
        failure_mode: FailureMode::Partial,
    }
}

struct Cell {
    /// `None` when the run aborted with an error.
    rows: Option<Vec<Tuple>>,
    ws_calls: u64,
    /// Total charged model seconds across all providers for this run —
    /// the scale-independent cost metric (wall time is meaningless at
    /// `--scale 0`).
    charged_model_secs: f64,
    skipped_params: u64,
    resilience: wsmed_core::ResilienceStats,
    error: Option<String>,
}

fn run_config(
    opts: &HarnessOpts,
    label: &'static str,
    fanouts: &FanoutVector,
    chaos: Option<FaultSpec>,
    policy: Option<ResiliencePolicy>,
    trace_to: Option<&str>,
    csv: &mut std::fs::File,
) -> Cell {
    let mut setup = opts.setup();
    if let Some(spec) = chaos {
        setup
            .network
            .provider(LEAF)
            .expect("leaf provider registered")
            .set_fault(spec);
    }
    if let Some(policy) = policy {
        setup.wsmed.set_resilience_policy(policy);
    }
    if trace_to.is_some() {
        setup.wsmed.set_trace_policy(TracePolicy::enabled());
    }
    let calls_before = setup.network.total_metrics().calls;
    let model_before = setup.network.model_time();
    let plan = setup
        .wsmed
        .compile_parallel(UNFILTERED_QUERY2_SQL, fanouts)
        .expect("chaos query compiles");
    // Failed chaos runs have no report to read a trace from; the traced
    // execution API returns this run's log either way.
    let (result, run_trace) = setup.wsmed.execute_traced(&plan);
    let charged_model_secs = setup.network.model_time() - model_before;
    let ws_calls = setup.network.total_metrics().calls - calls_before;

    if let Some(name) = trace_to {
        let trace = run_trace.expect("traced run yields a log");
        let events = trace.events();
        let violations = obs::validate(&events);
        assert!(
            violations.is_empty(),
            "{label}: chaos trace violates invariants: {violations:?}"
        );
        let path = write_experiment_file(name, &trace.to_jsonl());
        println!(
            "  {label}: {} trace event(s) written to {}",
            events.len(),
            path.display()
        );
    }

    let cell = match result {
        Ok(report) => Cell {
            ws_calls,
            charged_model_secs,
            skipped_params: report.resilience.skipped_params,
            resilience: report.resilience,
            error: None,
            rows: Some(report.rows),
        },
        Err(e) => Cell {
            ws_calls,
            charged_model_secs,
            skipped_params: 0,
            resilience: wsmed_core::ResilienceStats::default(),
            error: Some(e.to_string()),
            rows: None,
        },
    };
    println!(
        "  {label:>10}: {:>5} rows, {:>4} ws calls, {:>8.1} charged model-s, \
         {:>2} skipped{}",
        cell.rows.as_ref().map_or(0, Vec::len),
        cell.ws_calls,
        cell.charged_model_secs,
        cell.skipped_params,
        cell.error
            .as_ref()
            .map(|e| format!(" — aborted: {e}"))
            .unwrap_or_default(),
    );
    csv_row(
        csv,
        &format!(
            "{label},{},{},{:.2},{},{}",
            cell.rows.as_ref().map_or(0, Vec::len),
            cell.ws_calls,
            cell.charged_model_secs,
            cell.skipped_params,
            if cell.error.is_some() { "abort" } else { "ok" },
        ),
    );
    cell
}

/// Multiset-subset check on canonicalized row lists.
fn is_subset(sub: &[Tuple], sup: &[Tuple]) -> bool {
    let mut sup = sup.to_vec();
    sub.iter().all(|row| {
        sup.iter()
            .position(|s| s == row)
            .map(|i| {
                sup.swap_remove(i);
            })
            .is_some()
    })
}

pub fn run(opts: &HarnessOpts) {
    let fanouts = discover_fanouts(opts, UNFILTERED_QUERY2_SQL, 4);

    let (path, mut csv) = csv_writer(
        "chaos_ablation.csv",
        "config,rows,ws_calls,charged_model_secs,skipped_params,outcome",
    );

    let pristine = run_config(opts, "pristine", &fanouts, None, None, None, &mut csv);
    let defaults = run_config(
        opts,
        "defaults",
        &fanouts,
        Some(FaultSpec::none()),
        Some(ResiliencePolicy::default()),
        None,
        &mut csv,
    );
    let bare = run_config(
        opts,
        "bare-chaos",
        &fanouts,
        Some(chaos_spec()),
        None,
        None,
        &mut csv,
    );
    let resilient = run_config(
        opts,
        "resilient",
        &fanouts,
        Some(chaos_spec()),
        Some(resilient_policy()),
        Some("chaos_trace.jsonl"),
        &mut csv,
    );
    let shed_off = run_config(
        opts,
        "shed-off",
        &fanouts,
        Some(sustained_outage()),
        Some(shed_policy(false)),
        None,
        &mut csv,
    );
    let shed_on = run_config(
        opts,
        "shed-on",
        &fanouts,
        Some(sustained_outage()),
        Some(shed_policy(true)),
        None,
        &mut csv,
    );

    // ---- claims -----------------------------------------------------------
    let reference = canonicalize(pristine.rows.clone().expect("pristine run succeeds"));

    // 1. The resilience layer is pay-for-what-you-use: an inactive chaos
    //    spec plus the default policy reproduces the paper numbers.
    let defaults_rows = canonicalize(defaults.rows.clone().expect("defaults run succeeds"));
    assert_eq!(
        defaults_rows, reference,
        "defaults config changed the result multiset"
    );
    assert_eq!(
        defaults.ws_calls, pristine.ws_calls,
        "defaults config changed the web service call count"
    );

    // 2. The non-resilient config under chaos aborts — or, when the fault
    //    dice spare it, pays full hang latencies (stalls).
    let bare_stalls = bare.charged_model_secs >= 5.0 * resilient.charged_model_secs;
    assert!(
        bare.error.is_some() || bare_stalls,
        "bare-chaos must abort or stall (got {} rows at {:.1} charged model-s)",
        bare.rows.as_ref().map_or(0, Vec::len),
        bare.charged_model_secs,
    );

    // 3. The resilient config completes with ≥ 95 % of the rows, every
    //    missing row accounted by a skipped parameter, at bounded cost.
    let resilient_rows = canonicalize(
        resilient
            .rows
            .clone()
            .expect("resilient run must survive chaos"),
    );
    assert!(
        is_subset(&resilient_rows, &reference),
        "resilient rows are not a subset of the fault-free result"
    );
    let kept = resilient_rows.len() as f64 / reference.len() as f64;
    println!(
        "\nresilient kept {:.1}% of {} rows ({} skipped param(s)); \
         charged model-s: pristine {:.1}, resilient {:.1}, bare-chaos {:.1}{}",
        kept * 100.0,
        reference.len(),
        resilient.skipped_params,
        pristine.charged_model_secs,
        resilient.charged_model_secs,
        bare.charged_model_secs,
        bare.error
            .as_ref()
            .map_or(String::new(), |_| { " (aborted)".to_owned() }),
    );
    assert!(
        kept >= 0.95,
        "resilient run kept only {:.1}% of rows",
        kept * 100.0
    );
    assert!(
        resilient_rows.len() == reference.len() || resilient.skipped_params > 0,
        "rows are missing but no parameter skip was recorded"
    );
    assert!(
        resilient.charged_model_secs <= 6.0 * pristine.charged_model_secs,
        "resilient charged model time {:.1} exceeds 6× pristine {:.1}",
        resilient.charged_model_secs,
        pristine.charged_model_secs,
    );
    assert!(
        resilient.resilience.retries > 0,
        "chaos must force at least one retry"
    );
    assert!(
        resilient.resilience.deadline_exceeded > 0,
        "hangs must be observed through the deadline"
    );

    // 4. Under a sustained outage, the hair-trigger breaker trips, sheds
    //    the doomed calls, and the run is charged less than the config
    //    that keeps retrying into the dead provider. Both complete.
    assert!(shed_off.error.is_none() && shed_on.error.is_none());
    assert!(
        shed_on.resilience.breaker_opens >= 1 && shed_on.resilience.breaker_rejections > 0,
        "sustained outage must trip the breaker ({} opens, {} rejections)",
        shed_on.resilience.breaker_opens,
        shed_on.resilience.breaker_rejections,
    );
    println!(
        "sustained outage: no breaker {:.1} charged model-s, breaker {:.1}          ({} opens, {} rejections)",
        shed_off.charged_model_secs,
        shed_on.charged_model_secs,
        shed_on.resilience.breaker_opens,
        shed_on.resilience.breaker_rejections,
    );
    assert!(
        shed_on.charged_model_secs < shed_off.charged_model_secs,
        "breaker load-shedding must cost less than retrying into the outage          ({:.1} vs {:.1} charged model-s)",
        shed_on.charged_model_secs,
        shed_off.charged_model_secs,
    );

    println!("all chaos claims hold; CSV written to {}", path.display());
}
