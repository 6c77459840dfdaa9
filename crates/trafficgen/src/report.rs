//! Latency-percentile load reports.
//!
//! A [`LoadReport`] condenses one open-loop replay into the numbers a
//! regression gate can assert on: per-phase latency percentiles (exact
//! nearest-rank over completed queries, in model seconds), goodput
//! (completions per model second of phase time), shed rate, and a row of
//! per-subsystem counters (cache, pool, breakers, admission, provider
//! calls). The percentile math is deliberately the exact sorted-vector
//! definition — no streaming sketch — because replays are small enough to
//! keep every sample and gates must not flake on estimator error.

use crate::runner::{InjectionOutcome, OutcomeKind};
use crate::workload::Workload;

/// Exact nearest-rank quantile: the smallest sample such that at least
/// `p·n` samples are ≤ it (`sorted[⌈p·n⌉ - 1]`). `sorted` must be
/// ascending. Returns 0.0 on an empty slice (gates treat "no samples" as
/// "nothing to assert on", not a panic mid-report).
pub fn exact_quantile(sorted: &[f64], p: f64) -> f64 {
    assert!((0.0..=1.0).contains(&p), "quantile p out of range");
    if sorted.is_empty() {
        return 0.0;
    }
    let n = sorted.len();
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
    sorted[rank - 1]
}

/// FNV-1a over a byte string — the digest used to compare transcripts and
/// outcome sequences without storing either.
pub use wsmed_netsim::fnv1a;

/// Aggregates for one arrival phase (or the whole run, phase `all`).
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseReport {
    /// Phase label (`steady`, `peak`, `burst`, ..., or `all`).
    pub phase: String,
    /// Queries injected during the phase.
    pub injected: usize,
    /// Queries that ran to completion.
    pub completed: usize,
    /// Queries shed by admission control.
    pub shed: usize,
    /// Queries that failed for non-admission reasons.
    pub failed: usize,
    /// Result rows across completed queries.
    pub rows: u64,
    /// Model-time latency percentiles over *completed* queries, seconds.
    pub p50: f64,
    /// 95th percentile, model seconds.
    pub p95: f64,
    /// 99th percentile, model seconds.
    pub p99: f64,
    /// 99.9th percentile, model seconds.
    pub p999: f64,
    /// Completions per model second of phase time.
    pub goodput_qps: f64,
    /// Shed fraction of injected queries (0 when nothing injected).
    pub shed_rate: f64,
}

impl PhaseReport {
    fn build(
        phase: &str,
        outcomes: &[&InjectionOutcome],
        phase_model_secs: f64,
        time_scale: f64,
    ) -> PhaseReport {
        let mut latencies: Vec<f64> = outcomes
            .iter()
            .filter(|o| matches!(o.kind, OutcomeKind::Completed { .. }))
            .map(|o| o.latency_model_secs(time_scale))
            .collect();
        latencies.sort_by(f64::total_cmp);
        let completed = latencies.len();
        let shed = outcomes
            .iter()
            .filter(|o| o.kind == OutcomeKind::Shed)
            .count();
        let failed = outcomes.len() - completed - shed;
        let rows = outcomes
            .iter()
            .filter_map(|o| match o.kind {
                OutcomeKind::Completed { rows } => Some(rows as u64),
                _ => None,
            })
            .sum();
        PhaseReport {
            phase: phase.to_owned(),
            injected: outcomes.len(),
            completed,
            shed,
            failed,
            rows,
            p50: exact_quantile(&latencies, 0.50),
            p95: exact_quantile(&latencies, 0.95),
            p99: exact_quantile(&latencies, 0.99),
            p999: exact_quantile(&latencies, 0.999),
            goodput_qps: if phase_model_secs > 0.0 {
                completed as f64 / phase_model_secs
            } else {
                0.0
            },
            shed_rate: if outcomes.is_empty() {
                0.0
            } else {
                shed as f64 / outcomes.len() as f64
            },
        }
    }

    /// Renders the phase as a JSON object.
    pub fn json(&self) -> String {
        format!(
            "{{\"phase\": \"{}\", \"injected\": {}, \"completed\": {}, \"shed\": {}, \
             \"failed\": {}, \"rows\": {}, \"p50_model_s\": {:.6}, \"p95_model_s\": {:.6}, \
             \"p99_model_s\": {:.6}, \"p999_model_s\": {:.6}, \"goodput_qps\": {:.4}, \
             \"shed_rate\": {:.4}}}",
            self.phase,
            self.injected,
            self.completed,
            self.shed,
            self.failed,
            self.rows,
            self.p50,
            self.p95,
            self.p99,
            self.p999,
            self.goodput_qps,
            self.shed_rate,
        )
    }
}

/// Mediator-wide subsystem counters captured after a replay.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SubsystemCounters {
    /// Call-cache hits (completed-entry answers).
    pub cache_hits: u64,
    /// Call-cache misses that reached the transport.
    pub cache_misses: u64,
    /// Cache hits on entries produced by a *different* query.
    pub cross_query_hits: u64,
    /// Child processes acquired warm from the pool.
    pub warm_acquires: u64,
    /// Child processes spawned cold.
    pub cold_spawns: u64,
    /// Circuit-breaker open transitions.
    pub breaker_opens: u64,
    /// Queries rejected at admission.
    pub shed_queries: u64,
    /// Calls rejected by in-flight budgets.
    pub shed_calls: u64,
    /// Web-service calls that reached the simulated providers.
    pub provider_calls: u64,
    /// Parameters pruned by semi-join prune stages (summed over runs).
    pub pruned_params: u64,
}

impl SubsystemCounters {
    /// Snapshots the mediator's *lifetime-monotonic* counters (breakers,
    /// admission, provider calls); subtract a "before" snapshot to scope
    /// to one replay. Cache/pool/prune counts are not read here: they
    /// exist only in each run's own [`wsmed_core::ExecutionReport`], and
    /// [`LoadReport::build`] sums them from there.
    pub fn collect(med: &wsmed_core::Wsmed, network: &wsmed_netsim::Network) -> SubsystemCounters {
        let admission = med.admission().stats();
        SubsystemCounters {
            breaker_opens: med.breaker_totals().opens,
            shed_queries: admission.shed_queries,
            shed_calls: admission.shed_calls,
            provider_calls: network.total_metrics().calls,
            ..SubsystemCounters::default()
        }
    }

    /// Counter-wise difference (`self - before`), for scoping a snapshot
    /// pair to one replay.
    pub fn since(&self, before: &SubsystemCounters) -> SubsystemCounters {
        SubsystemCounters {
            cache_hits: self.cache_hits - before.cache_hits,
            cache_misses: self.cache_misses - before.cache_misses,
            cross_query_hits: self.cross_query_hits - before.cross_query_hits,
            warm_acquires: self.warm_acquires - before.warm_acquires,
            cold_spawns: self.cold_spawns - before.cold_spawns,
            breaker_opens: self.breaker_opens - before.breaker_opens,
            shed_queries: self.shed_queries - before.shed_queries,
            shed_calls: self.shed_calls - before.shed_calls,
            provider_calls: self.provider_calls - before.provider_calls,
            pruned_params: self.pruned_params - before.pruned_params,
        }
    }

    /// Renders the counters as a JSON object.
    pub fn json(&self) -> String {
        format!(
            "{{\"cache_hits\": {}, \"cache_misses\": {}, \"cross_query_hits\": {}, \
             \"warm_acquires\": {}, \"cold_spawns\": {}, \"breaker_opens\": {}, \
             \"shed_queries\": {}, \"shed_calls\": {}, \"provider_calls\": {}, \
             \"pruned_params\": {}}}",
            self.cache_hits,
            self.cache_misses,
            self.cross_query_hits,
            self.warm_acquires,
            self.cold_spawns,
            self.breaker_opens,
            self.shed_queries,
            self.shed_calls,
            self.provider_calls,
            self.pruned_params,
        )
    }
}

/// The full report of one open-loop replay.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Mediator configuration label (`bare`, `full`, ...).
    pub config: String,
    /// Arrival profile name (`poisson`, `diurnal`, `square`).
    pub profile: String,
    /// Wall seconds per model second the replay ran at.
    pub time_scale: f64,
    /// Run length in model seconds.
    pub duration_model_secs: f64,
    /// FNV-1a digest of the workload transcript.
    pub transcript_digest: u64,
    /// Whole-run aggregates (phase label `all`).
    pub overall: PhaseReport,
    /// Per-phase aggregates, in the profile's phase order.
    pub phases: Vec<PhaseReport>,
    /// Subsystem counters scoped to this replay.
    pub counters: SubsystemCounters,
    /// Per-injection outcome labels + row counts, in injection order
    /// (the deterministic projection of the replay).
    outcome_lines: Vec<String>,
}

impl LoadReport {
    /// Builds the report from a workload and its replay outcomes.
    /// `counters` should already be scoped to the replay (see
    /// [`SubsystemCounters::since`]).
    ///
    /// # Panics
    /// Panics if `outcomes` does not cover exactly the workload's
    /// injections (accounting must sum, by construction).
    pub fn build(
        config: &str,
        workload: &Workload,
        outcomes: &[InjectionOutcome],
        time_scale: f64,
        mut counters: SubsystemCounters,
    ) -> LoadReport {
        assert_eq!(
            outcomes.len(),
            workload.injections.len(),
            "one outcome per injection"
        );
        // Per-run attribution sums across injections; a shed or failed run
        // has no report and adds nothing.
        let reports = || outcomes.iter().filter_map(|o| o.report.as_deref());
        counters.pruned_params = reports().map(|r| r.pruned_params).sum();
        counters.cache_hits = reports().map(|r| r.cache.hits).sum();
        counters.cache_misses = reports().map(|r| r.cache.misses).sum();
        counters.cross_query_hits = reports().map(|r| r.cache.cross_query_hits).sum();
        counters.warm_acquires = reports().map(|r| r.pool.warm_acquires).sum();
        counters.cold_spawns = reports().map(|r| r.pool.cold_spawns).sum();
        let all: Vec<&InjectionOutcome> = outcomes.iter().collect();
        let duration = workload.spec.duration_model_secs;
        let overall = PhaseReport::build("all", &all, duration, time_scale);
        let mut phases = Vec::new();
        for phase in workload.spec.profile.phases() {
            let in_phase: Vec<&InjectionOutcome> =
                outcomes.iter().filter(|o| o.phase == *phase).collect();
            phases.push(PhaseReport::build(
                phase,
                &in_phase,
                workload.spec.profile.phase_model_seconds(phase, duration),
                time_scale,
            ));
        }
        let outcome_lines = outcomes
            .iter()
            .map(|o| {
                let rows = match o.kind {
                    OutcomeKind::Completed { rows } => rows,
                    _ => 0,
                };
                format!("{}|{}|{}", o.index, o.kind.label(), rows)
            })
            .collect();
        LoadReport {
            config: config.to_owned(),
            profile: workload.spec.profile.name().to_owned(),
            time_scale,
            duration_model_secs: duration,
            transcript_digest: fnv1a(workload.transcript().as_bytes()),
            overall,
            phases,
            counters,
            outcome_lines,
        }
    }

    /// Renders the whole report as a JSON object (one arm of a
    /// `BENCH_load.json` section).
    pub fn json(&self) -> String {
        let phases: Vec<String> = self.phases.iter().map(|p| p.json()).collect();
        format!(
            "{{\"config\": \"{}\", \"profile\": \"{}\", \"time_scale\": {}, \
             \"duration_model_s\": {}, \"transcript_digest\": \"{:016x}\", \
             \"overall\": {}, \"phases\": [{}], \"counters\": {}}}",
            self.config,
            self.profile,
            self.time_scale,
            self.duration_model_secs,
            self.transcript_digest,
            self.overall.json(),
            phases.join(", "),
            self.counters.json(),
        )
    }

    /// The seed-determinism projection of the replay: workload transcript
    /// digest, per-injection outcome kind and row count, and the
    /// accounting totals. Two same-seed replays on equivalently
    /// configured, quota-free mediators must produce byte-identical
    /// projections; wall-derived latencies are deliberately excluded.
    pub fn deterministic_json(&self) -> String {
        format!(
            "{{\"transcript_digest\": \"{:016x}\", \"outcomes_digest\": \"{:016x}\", \
             \"injected\": {}, \"completed\": {}, \"shed\": {}, \"failed\": {}, \"rows\": {}}}",
            self.transcript_digest,
            fnv1a(self.outcome_lines.join("\n").as_bytes()),
            self.overall.injected,
            self.overall.completed,
            self.overall.shed,
            self.overall.failed,
            self.overall.rows,
        )
    }

    /// A human-readable percentile table (one row per phase).
    pub fn table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:10} {:>8} {:>8} {:>6} {:>6} {:>9} {:>9} {:>9} {:>9} {:>9} {:>7}\n",
            "phase",
            "injected",
            "complete",
            "shed",
            "fail",
            "p50",
            "p95",
            "p99",
            "p999",
            "qps",
            "shed%"
        ));
        for p in std::iter::once(&self.overall).chain(self.phases.iter()) {
            out.push_str(&format!(
                "{:10} {:>8} {:>8} {:>6} {:>6} {:>9.3} {:>9.3} {:>9.3} {:>9.3} {:>9.2} {:>6.1}%\n",
                p.phase,
                p.injected,
                p.completed,
                p.shed,
                p.failed,
                p.p50,
                p.p95,
                p.p99,
                p.p999,
                p.goodput_qps,
                p.shed_rate * 100.0,
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn quantiles_match_sorted_vector_definition() {
        // Heavy tail with ties, against hand-computed nearest-rank values.
        let mut v = vec![1.0, 1.0, 1.0, 1.0, 2.0, 2.0, 3.0, 10.0, 100.0, 1000.0];
        v.sort_by(f64::total_cmp);
        assert_eq!(exact_quantile(&v, 0.50), 2.0); // rank ceil(5) = 5
        assert_eq!(exact_quantile(&v, 0.95), 1000.0); // rank ceil(9.5) = 10
        assert_eq!(exact_quantile(&v, 0.99), 1000.0);
        assert_eq!(exact_quantile(&v, 0.10), 1.0);
        assert_eq!(exact_quantile(&v, 0.0), 1.0); // clamped to rank 1
        assert_eq!(exact_quantile(&v, 1.0), 1000.0);
    }

    #[test]
    fn single_sample_is_every_quantile() {
        let v = [42.0];
        for p in [0.0, 0.5, 0.95, 0.999, 1.0] {
            assert_eq!(exact_quantile(&v, p), 42.0);
        }
    }

    #[test]
    fn empty_samples_yield_zero() {
        assert_eq!(exact_quantile(&[], 0.95), 0.0);
    }

    #[test]
    fn all_ties_collapse_to_the_tie() {
        let v = [7.0; 100];
        for p in [0.5, 0.95, 0.999] {
            assert_eq!(exact_quantile(&v, p), 7.0);
        }
    }

    #[test]
    fn fnv1a_distinguishes_and_repeats() {
        assert_eq!(fnv1a(b"abc"), fnv1a(b"abc"));
        assert_ne!(fnv1a(b"abc"), fnv1a(b"abd"));
    }

    fn outcome(index: usize, phase: &'static str, kind: OutcomeKind, ms: u64) -> InjectionOutcome {
        InjectionOutcome {
            index,
            phase,
            tenant: "t0".into(),
            template: crate::workload::TemplateKind::Query2ZipState,
            arrival_model_secs: index as f64,
            latency_wall: Duration::from_millis(ms),
            kind,
            report: None,
        }
    }

    #[test]
    fn accounting_sums_exactly_to_injected() {
        use crate::arrival::ArrivalProfile;
        use crate::workload::{Workload, WorkloadSpec};
        let spec = WorkloadSpec::standard(7, ArrivalProfile::Poisson { rate: 2.0 }, 20.0);
        let states: Vec<String> = ["CO", "GA", "TX"].iter().map(|s| s.to_string()).collect();
        let w = Workload::generate(spec, &states);
        let outcomes: Vec<InjectionOutcome> = w
            .injections
            .iter()
            .map(|inj| {
                let kind = match inj.index % 3 {
                    0 => OutcomeKind::Completed { rows: 2 },
                    1 => OutcomeKind::Shed,
                    _ => OutcomeKind::Failed {
                        error: "boom".into(),
                    },
                };
                outcome(inj.index, inj.phase, kind, 10 + inj.index as u64)
            })
            .collect();
        let report = LoadReport::build("test", &w, &outcomes, 1.0, SubsystemCounters::default());
        let o = &report.overall;
        assert_eq!(o.injected, w.injections.len());
        assert_eq!(o.completed + o.shed + o.failed, o.injected);
        let phase_injected: usize = report.phases.iter().map(|p| p.injected).sum();
        assert_eq!(phase_injected, o.injected);
        let phase_completed: usize = report.phases.iter().map(|p| p.completed).sum();
        assert_eq!(phase_completed, o.completed);
        let phase_shed: usize = report.phases.iter().map(|p| p.shed).sum();
        assert_eq!(phase_shed, o.shed);
        assert!((o.shed_rate - o.shed as f64 / o.injected as f64).abs() < 1e-12);
        // Expected rows: 2 per completed query.
        assert_eq!(o.rows, 2 * o.completed as u64);
    }

    #[test]
    fn percentiles_equal_direct_computation_on_adversarial_latencies() {
        use crate::arrival::ArrivalProfile;
        use crate::workload::{Workload, WorkloadSpec};
        let spec = WorkloadSpec::standard(3, ArrivalProfile::Poisson { rate: 3.0 }, 30.0);
        let states: Vec<String> = ["CO", "GA"].iter().map(|s| s.to_string()).collect();
        let w = Workload::generate(spec, &states);
        // Adversarial: many ties at 5ms, one enormous outlier.
        let outcomes: Vec<InjectionOutcome> = w
            .injections
            .iter()
            .map(|inj| {
                let ms = if inj.index == 0 { 60_000 } else { 5 };
                outcome(inj.index, inj.phase, OutcomeKind::Completed { rows: 1 }, ms)
            })
            .collect();
        let scale = 0.5;
        let report = LoadReport::build("test", &w, &outcomes, scale, SubsystemCounters::default());
        let mut lat: Vec<f64> = outcomes
            .iter()
            .map(|o| o.latency_wall.as_secs_f64() / scale)
            .collect();
        lat.sort_by(f64::total_cmp);
        assert_eq!(report.overall.p50, exact_quantile(&lat, 0.50));
        assert_eq!(report.overall.p95, exact_quantile(&lat, 0.95));
        assert_eq!(report.overall.p99, exact_quantile(&lat, 0.99));
        assert_eq!(report.overall.p999, exact_quantile(&lat, 0.999));
        assert_eq!(report.overall.p50, 0.01); // 5ms at scale 0.5
    }

    #[test]
    fn deterministic_json_ignores_latency_but_not_outcomes() {
        use crate::arrival::ArrivalProfile;
        use crate::workload::{Workload, WorkloadSpec};
        let spec = WorkloadSpec::standard(5, ArrivalProfile::Poisson { rate: 2.0 }, 10.0);
        let states: Vec<String> = ["CO", "GA"].iter().map(|s| s.to_string()).collect();
        let w = Workload::generate(spec, &states);
        let make = |ms: u64, rows: usize| -> Vec<InjectionOutcome> {
            w.injections
                .iter()
                .map(|inj| outcome(inj.index, inj.phase, OutcomeKind::Completed { rows }, ms))
                .collect()
        };
        let a = LoadReport::build("x", &w, &make(10, 3), 1.0, SubsystemCounters::default());
        let b = LoadReport::build("x", &w, &make(99, 3), 1.0, SubsystemCounters::default());
        let c = LoadReport::build("x", &w, &make(10, 4), 1.0, SubsystemCounters::default());
        assert_eq!(a.deterministic_json(), b.deterministic_json());
        assert_ne!(a.deterministic_json(), c.deterministic_json());
    }

    #[test]
    fn json_has_schema_relevant_fields() {
        use crate::arrival::ArrivalProfile;
        use crate::workload::{Workload, WorkloadSpec};
        let spec = WorkloadSpec::standard(1, ArrivalProfile::Poisson { rate: 2.0 }, 5.0);
        let states: Vec<String> = ["CO"].iter().map(|s| s.to_string()).collect();
        let w = Workload::generate(spec, &states);
        let outcomes: Vec<InjectionOutcome> = w
            .injections
            .iter()
            .map(|inj| outcome(inj.index, inj.phase, OutcomeKind::Completed { rows: 1 }, 5))
            .collect();
        let r = LoadReport::build("full", &w, &outcomes, 1.0, SubsystemCounters::default());
        let json = r.json();
        for key in [
            "\"config\"",
            "\"profile\"",
            "\"p95_model_s\"",
            "\"goodput_qps\"",
            "\"shed_rate\"",
            "\"counters\"",
            "\"transcript_digest\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        assert!(!r.table().is_empty());
    }
}
