//! Open-loop replay of a generated workload against a mediator.
//!
//! The replayer anchors the model clock to a wall [`Instant`], schedules
//! injection *i* at `anchor + arrival_i × time_scale`, and injects it then
//! — whether or not earlier queries have finished. Each injection's
//! latency is attributed from its *scheduled* arrival (not from when the
//! injector thread got around to it), so injector lag and admission
//! queueing both show up in the percentiles, which is the whole point of
//! an open-loop harness.

use std::collections::HashMap;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use wsmed_core::{ArrivalOutcome, CoreResult, QueryPlan, Wsmed};

use crate::workload::{TemplateKind, Workload};

/// How one injection terminated, with just enough detail for reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OutcomeKind {
    /// Ran to completion, producing this many result rows.
    Completed {
        /// Result rows returned.
        rows: usize,
    },
    /// Shed by admission control.
    Shed,
    /// Failed for a non-admission reason (stringified error).
    Failed {
        /// The error rendered with `Display`.
        error: String,
    },
}

impl OutcomeKind {
    /// A one-word label (`ok`/`shed`/`fail`) for transcripts.
    pub fn label(&self) -> &'static str {
        match self {
            OutcomeKind::Completed { .. } => "ok",
            OutcomeKind::Shed => "shed",
            OutcomeKind::Failed { .. } => "fail",
        }
    }
}

/// The measured fate of one injection.
#[derive(Debug, Clone)]
pub struct InjectionOutcome {
    /// Index of the injection in the workload (arrival order).
    pub index: usize,
    /// The arrival profile's phase label at the scheduled arrival.
    pub phase: &'static str,
    /// The tenant the query ran under.
    pub tenant: String,
    /// The query shape.
    pub template: TemplateKind,
    /// Scheduled arrival on the model clock, seconds from run start.
    pub arrival_model_secs: f64,
    /// Scheduled-arrival → terminal-event wall latency.
    pub latency_wall: Duration,
    /// How the injection terminated.
    pub kind: OutcomeKind,
    /// The full execution report of a completed run (result rows, tree,
    /// per-run cache and pool attribution, resilience detail) — `None` for
    /// shed/failed injections.
    pub report: Option<Box<wsmed_core::ExecutionReport>>,
}

impl InjectionOutcome {
    /// Scheduled-arrival → terminal latency in model seconds, given the
    /// time scale the replay ran at. Meaningless at `time_scale == 0`
    /// (the sim does not sleep, so wall time measures CPU, not model
    /// latency) — callers must gate percentile assertions on a positive
    /// scale.
    pub fn latency_model_secs(&self, time_scale: f64) -> f64 {
        if time_scale > 0.0 {
            self.latency_wall.as_secs_f64() / time_scale
        } else {
            0.0
        }
    }
}

/// Replays `workload` against `med` open-loop at `time_scale` wall
/// seconds per model second. Returns one outcome per injection, in
/// injection order. Plans are precompiled once per distinct SQL before
/// the clock starts, so compilation cost never pollutes the latencies.
///
/// `time_scale` should match the scale the mediator's network was built
/// with; `0` injects everything immediately (useful for interleaving
/// stress tests where only result bags matter).
pub fn replay(
    med: &Wsmed,
    workload: &Workload,
    time_scale: f64,
) -> CoreResult<Vec<InjectionOutcome>> {
    let mut plans: HashMap<&str, QueryPlan> = HashMap::new();
    for sql in workload.unique_sqls() {
        let inj = workload
            .injections
            .iter()
            .find(|i| i.sql == sql)
            .expect("sql came from an injection");
        plans.insert(inj.sql.as_str(), med.plan_query(&sql)?);
    }

    let outcomes: Mutex<Vec<InjectionOutcome>> = Mutex::new(Vec::new());
    let anchor = Instant::now();
    std::thread::scope(|scope| {
        for inj in &workload.injections {
            let plan = &plans[inj.sql.as_str()];
            let outcomes = &outcomes;
            scope.spawn(move || {
                let target = anchor + Duration::from_secs_f64(inj.arrival_model_secs * time_scale);
                let now = Instant::now();
                if target > now {
                    std::thread::sleep(target - now);
                }
                let outcome = med.execute_arrival_for(&inj.tenant, plan, target);
                let latency_wall = outcome.latency_wall();
                let (kind, report) = match outcome {
                    ArrivalOutcome::Completed { report, .. } => (
                        OutcomeKind::Completed {
                            rows: report.rows.len(),
                        },
                        Some(report),
                    ),
                    ArrivalOutcome::Shed { .. } => (OutcomeKind::Shed, None),
                    ArrivalOutcome::Failed { error, .. } => (
                        OutcomeKind::Failed {
                            error: error.to_string(),
                        },
                        None,
                    ),
                };
                outcomes
                    .lock()
                    .expect("no poisoned lock")
                    .push(InjectionOutcome {
                        index: inj.index,
                        phase: inj.phase,
                        tenant: inj.tenant.clone(),
                        template: inj.template,
                        arrival_model_secs: inj.arrival_model_secs,
                        latency_wall,
                        kind,
                        report,
                    });
            });
        }
    });
    let mut outcomes = outcomes.into_inner().expect("no poisoned lock");
    outcomes.sort_by_key(|o| o.index);
    Ok(outcomes)
}
