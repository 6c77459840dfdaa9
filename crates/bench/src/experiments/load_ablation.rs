//! Open-loop load ablation: the traffic harness poses a seeded,
//! Zipf-skewed query population at the mediator under three arrival
//! profiles (Poisson, diurnal, square-wave bursts) and two mediator
//! configurations, and gates on the latency percentiles:
//!
//! * **bare** — no call cache, no process pool, heuristic planner;
//! * **full** — cross-run single-flight cache, warm process pool,
//!   cost-based planner with semi-join pruning.
//!
//! Both arms run the *same* workload (same seed ⇒ byte-identical
//! transcript) under the same admission quota, so any difference in the
//! percentile table is the configuration's doing. In-binary asserts:
//!
//! * same-seed generation is byte-identical and same-seed quota-free
//!   replays produce identical deterministic projections;
//! * accounting sums exactly (injected = completed + shed + failed);
//! * at a positive time scale, `full` strictly beats `bare` on p95
//!   latency and on goodput at the fixed arrival rate.
//!
//! ```text
//! cargo run --release -p wsmed-bench -- load_ablation --small --scale 0.002
//! ```

use wsmed_bench::{csv_row, csv_writer, emit_bench_section, HarnessOpts};
use wsmed_core::{paper, CachePolicy, PlannerPolicy, QuotaPolicy, Wsmed};
use wsmed_services::DatasetConfig;
use wsmed_trafficgen::{
    replay, ArrivalProfile, LoadReport, SubsystemCounters, Workload, WorkloadSpec,
};

/// Tuned harness knobs for one invocation size (`--small` or `--full`).
struct Knobs {
    /// Wall seconds per model second.
    time_scale: f64,
    /// Run length, model seconds.
    duration: f64,
    /// Mean Poisson arrival rate, queries per model second.
    rate: f64,
    /// Concurrent-query quota both arms run under.
    quota: usize,
    /// Dataset behind the simulated services.
    dataset: DatasetConfig,
}

impl Knobs {
    fn new(opts: &HarnessOpts) -> Knobs {
        if opts.full {
            Knobs {
                time_scale: opts.scale,
                duration: 60.0,
                rate: 1.5,
                quota: 6,
                dataset: DatasetConfig::small(),
            }
        } else {
            Knobs {
                time_scale: opts.scale,
                duration: 30.0,
                rate: 1.2,
                quota: 4,
                dataset: DatasetConfig::tiny(),
            }
        }
    }

    fn profile(&self, name: &str) -> ArrivalProfile {
        match name {
            "poisson" => ArrivalProfile::Poisson { rate: self.rate },
            "diurnal" => ArrivalProfile::Diurnal {
                trough_rate: 0.3 * self.rate,
                peak_rate: 1.7 * self.rate,
                period_model_secs: self.duration / 2.0,
            },
            "square" => ArrivalProfile::SquareWave {
                quiet_rate: 0.4 * self.rate,
                burst_rate: 3.0 * self.rate,
                period_model_secs: self.duration / 4.0,
                burst_fraction: 0.25,
            },
            other => panic!("unknown profile {other}"),
        }
    }
}

/// Configures one mediator arm. `full` turns on every shared-infrastructure
/// subsystem; `bare` leaves the mediator as imported.
fn configure(med: &mut Wsmed, full: bool, quota: usize) {
    if full {
        med.set_cache_policy(Some(CachePolicy {
            cross_run: true,
            single_flight: true,
            ..Default::default()
        }));
        med.enable_process_pool(true);
        med.set_planner_policy(PlannerPolicy::CostBased { prune: true });
    }
    med.set_quota_policy(QuotaPolicy {
        max_concurrent_queries: Some(quota),
        ..Default::default()
    });
}

/// Runs one (config × workload) arm on a fresh mediator and reports it.
fn run_arm(config: &str, knobs: &Knobs, workload: &Workload) -> LoadReport {
    let mut setup = paper::setup(knobs.time_scale, knobs.dataset.clone());
    configure(&mut setup.wsmed, config == "full", knobs.quota);
    let before = SubsystemCounters::collect(&setup.wsmed, &setup.network);
    let outcomes = replay(&setup.wsmed, workload, knobs.time_scale).expect("replay runs");
    let after = SubsystemCounters::collect(&setup.wsmed, &setup.network);
    LoadReport::build(
        config,
        workload,
        &outcomes,
        knobs.time_scale,
        after.since(&before),
    )
}

/// Same-seed determinism check: regeneration is byte-identical, and two
/// quota-free replays on fresh identically-configured mediators project to
/// the same outcomes (run at time scale 0 — only result bags matter).
fn assert_determinism(knobs: &Knobs, states: &[String]) {
    let spec = || WorkloadSpec::standard(0x10AD, knobs.profile("poisson"), 10.0);
    let a = Workload::generate(spec(), states);
    let b = Workload::generate(spec(), states);
    assert_eq!(
        a.transcript(),
        b.transcript(),
        "same-seed workload generation must be byte-identical"
    );
    let replay_once = |w: &Workload| {
        let mut setup = paper::setup(0.0, knobs.dataset.clone());
        setup.wsmed.set_cache_policy(Some(CachePolicy {
            cross_run: true,
            single_flight: true,
            ..Default::default()
        }));
        let before = SubsystemCounters::collect(&setup.wsmed, &setup.network);
        let outcomes = replay(&setup.wsmed, w, 0.0).expect("replay runs");
        let after = SubsystemCounters::collect(&setup.wsmed, &setup.network);
        LoadReport::build("det", w, &outcomes, 0.0, after.since(&before)).deterministic_json()
    };
    let first = replay_once(&a);
    let second = replay_once(&b);
    assert_eq!(
        first, second,
        "same-seed quota-free replays must project identically"
    );
    println!("determinism: transcripts and replay projections identical\n");
}

pub fn run(opts: &HarnessOpts) {
    opts.require_model_time();
    let knobs = Knobs::new(opts);
    println!(
        "knobs: {} model s at {} queries per model s, quota {}, {} zips per state",
        knobs.duration, knobs.rate, knobs.quota, knobs.dataset.zips_per_state
    );
    let dataset_states: Vec<String> = {
        // One throwaway generation to learn the state population.
        let setup = paper::setup(0.0, knobs.dataset.clone());
        setup
            .dataset
            .states()
            .iter()
            .map(|s| s.abbr.clone())
            .collect()
    };

    assert_determinism(&knobs, &dataset_states);

    let (csv_path, mut csv) = csv_writer(
        "load_ablation.csv",
        "profile,config,phase,injected,completed,shed,failed,p50_model_s,p95_model_s,\
         p99_model_s,p999_model_s,goodput_qps,shed_rate",
    );

    let mut arms_json = Vec::new();
    let mut gate: Option<(LoadReport, LoadReport)> = None;
    for profile_name in ["poisson", "diurnal", "square"] {
        let spec = WorkloadSpec::standard(0x7AF1C, knobs.profile(profile_name), knobs.duration);
        let workload = Workload::generate(spec, &dataset_states);
        println!(
            "== {profile_name}: {} injections over {} model s ==",
            workload.injections.len(),
            knobs.duration
        );
        let mut pair = Vec::new();
        for config in ["bare", "full"] {
            let report = run_arm(config, &knobs, &workload);
            print!("[{config}]\n{}", report.table());
            let o = &report.overall;
            assert_eq!(
                o.completed + o.shed + o.failed,
                o.injected,
                "accounting must sum exactly"
            );
            for phase in std::iter::once(&report.overall).chain(report.phases.iter()) {
                csv_row(
                    &mut csv,
                    &format!(
                        "{profile_name},{config},{},{},{},{},{},{:.6},{:.6},{:.6},{:.6},{:.4},{:.4}",
                        phase.phase,
                        phase.injected,
                        phase.completed,
                        phase.shed,
                        phase.failed,
                        phase.p50,
                        phase.p95,
                        phase.p99,
                        phase.p999,
                        phase.goodput_qps,
                        phase.shed_rate,
                    ),
                );
            }
            arms_json.push(report.json());
            pair.push(report);
        }
        println!();
        let full = pair.pop().expect("full arm");
        let bare = pair.pop().expect("bare arm");
        if profile_name == "poisson" {
            gate = Some((bare, full));
        }
    }

    // The regression gate: at a positive time scale (wall sleeps enabled,
    // so model latency is observable; `require_model_time` refused 0), the
    // full configuration must strictly beat bare on p95 latency and on
    // goodput at the same arrival schedule.
    let (bare, full) = gate.expect("poisson arms ran");
    assert!(
        full.overall.p95 < bare.overall.p95,
        "full p95 {:.3} must beat bare p95 {:.3}",
        full.overall.p95,
        bare.overall.p95
    );
    assert!(
        full.overall.goodput_qps > bare.overall.goodput_qps,
        "full goodput {:.3} must beat bare goodput {:.3}",
        full.overall.goodput_qps,
        bare.overall.goodput_qps
    );
    println!(
        "gate: full p95 {:.3} < bare p95 {:.3}; full goodput {:.2} > bare {:.2}",
        full.overall.p95, bare.overall.p95, full.overall.goodput_qps, bare.overall.goodput_qps
    );

    let body = format!(
        "{{\"duration_model_s\": {}, \"rate_qps\": {}, \"quota\": {}, \"arms\": [{}]}}",
        knobs.duration,
        knobs.rate,
        knobs.quota,
        arms_json.join(", ")
    );
    let json_path = emit_bench_section("BENCH_load.json", "load", Some(knobs.time_scale), &body);
    println!("wrote {} and {}", csv_path.display(), json_path.display());
}
