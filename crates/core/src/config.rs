//! Which policy applies to a run: the mediator's configuration and the
//! per-run view taken from it.
//!
//! A query process's behaviour is fixed when its plan function is
//! installed (paper §III); nothing is reconfigured mid-run. So the
//! mediator keeps one [`MediatorConfig`], its setters are the only
//! writers, and every `execute` clones it once. That clone is the run's
//! consistent snapshot: a setter racing the run changes the *next* run.
//! [`RunConfig`] is what one [`crate::ExecContext`] is built from.

use std::sync::{Arc, Weak};

use crate::cache::CallCache;
use crate::costs::PlannerStats;
use crate::exec::pool::ProcessPool;
use crate::obs::TracePolicy;
use crate::planner::PlannerPolicy;
use crate::resilience::{AdmissionControl, Breakers, CallGate, QuotaPolicy, ResiliencePolicy};
use crate::router::Router;
use crate::transport::{BatchPolicy, DispatchPolicy};

/// Everything the [`crate::Wsmed`] setters can set, and nothing else.
///
/// Plain values are copied into each run. The `Arc` members are live
/// instances shared by every run that snapshots them: `cache`, `pool` and
/// `router` are rebuilt by their setter (a run in flight keeps the instance
/// it started with), `breakers` and `admission` live as long as the
/// mediator.
#[derive(Clone, Default)]
pub(crate) struct MediatorConfig {
    pub resilience: ResiliencePolicy,
    pub dispatch: DispatchPolicy,
    pub batch: BatchPolicy,
    pub trace: TracePolicy,
    pub planner: PlannerPolicy,
    pub quota: QuotaPolicy,
    /// Built from the cache policy, which it carries.
    pub cache: Option<Arc<CallCache>>,
    /// Built from the pool policy, which it carries.
    pub pool: Option<Arc<ProcessPool>>,
    /// Built from the router policy, which it carries.
    pub router: Option<Arc<Router>>,
    pub breakers: Arc<Breakers>,
    pub admission: Arc<AdmissionControl>,
}

impl MediatorConfig {
    /// The configuration of one run of query `query_id` posed by `tenant`.
    /// Under a cost-based planner policy the run feeds its observations
    /// back into `planner_stats`, so later plans of the same shapes improve.
    pub(crate) fn for_run(
        &self,
        tenant: &str,
        query_id: u64,
        planner_stats: &Arc<PlannerStats>,
    ) -> RunConfig {
        let observing = matches!(self.planner, PlannerPolicy::CostBased { .. });
        RunConfig {
            resilience: self.resilience,
            dispatch: self.dispatch,
            batch: self.batch,
            trace: self.trace,
            cache: self.cache.clone(),
            pool: self.pool.as_ref().map_or_else(Weak::new, Arc::downgrade),
            planner_obs: observing.then(|| Arc::clone(planner_stats)),
            query_id,
            kill_child_after_eocs: 0,
            breakers: Arc::clone(&self.breakers),
            admission: Some(self.admission.gate(tenant, self.quota)),
            router: self.router.clone(),
        }
    }
}

/// One run's configuration: what [`crate::ExecContext::new`] takes. The
/// default is the paper's behaviour with nothing shared: one attempt per
/// call, first-finished dispatch, one tuple per frame, no cache, pool,
/// router, quota or trace.
#[derive(Default)]
pub struct RunConfig {
    /// Resilient-call policy (retries, deadline, breaker, hedge, failure
    /// mode) for web-service calls.
    pub resilience: ResiliencePolicy,
    /// Parameter dispatch policy for fixed-fanout `FF_APPLYP` operators.
    pub dispatch: DispatchPolicy,
    /// Tuple batching policy for parent↔child message frames.
    pub batch: BatchPolicy,
    /// Structured-trace policy; when enabled the context creates the
    /// run's [`crate::TraceLog`].
    pub trace: TracePolicy,
    /// Memoization of web-service calls and plan-function invocations.
    /// Contexts given the same instance share entries and in-flight
    /// latches.
    pub cache: Option<Arc<CallCache>>,
    /// Warm process pool. Weak: the pool owns parked threads whose
    /// closures hold their last run's context, so a strong reference here
    /// would form a leak cycle. Whoever builds the context owns the pool.
    pub pool: Weak<ProcessPool>,
    /// Planner-statistics sink that execution feeds operator
    /// cardinalities, call latencies and empty-parameter observations.
    pub planner_obs: Option<Arc<PlannerStats>>,
    /// Tags cache entries this run creates, so other queries' reads count
    /// as cross-query hits. Standalone contexts keep id 0.
    pub query_id: u64,
    /// Failure injection for tests: after this many end-of-call messages
    /// at the coordinator's parallel operator, one busy child is abruptly
    /// killed and its in-flight parameters requeued (0 = never).
    pub kill_child_after_eocs: u64,
    /// Per-provider circuit-breaker states.
    pub(crate) breakers: Arc<Breakers>,
    /// Gate charging this run's calls against its tenant's quota.
    pub(crate) admission: Option<CallGate>,
    /// Client-side replica router (`None` keeps every call direct).
    pub(crate) router: Option<Arc<Router>>,
}
