//! The WSMED mediator facade: import WSDL, pose SQL, execute plans.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;
use wsmed_netsim::SimConfig;
use wsmed_services::ServiceRegistry;
use wsmed_sql::CalculusExpr;

use crate::cache::{CachePolicy, CallCache};
use crate::catalog::OwfCatalog;
use crate::central::create_central_plan;
use crate::config::{MediatorConfig, RunConfig};
use crate::costs::{CostModel, PlannerStats};
use crate::exec::pool::{PoolPolicy, ProcessPool};
use crate::exec::{builtin_functions, ExecContext};
use crate::obs::{TraceLog, TracePolicy};
use crate::parallel::{parallel_level_count, parallelize, parallelize_adaptive, FanoutVector};
use crate::plan::{AdaptiveConfig, QueryPlan};
use crate::planner::{self, PlanExplanation, PlannerPolicy};
use crate::resilience::{
    AdmissionControl, BreakerTotals, QueryGuard, QuotaPolicy, ResiliencePolicy,
};
use crate::router::{Router, RouterPolicy};
use crate::stats::ExecutionReport;
use crate::transport::{BatchPolicy, DispatchPolicy, SimTransport, WsTransport};
use crate::CoreResult;

/// The tenant of executions posed without one ([`Wsmed::execute`]; name a
/// tenant with [`Wsmed::execute_for`]).
pub const DEFAULT_TENANT: &str = "default";

/// Plans [`Wsmed`] keeps, over all policies; past this the cache starts
/// over. `load_mix` poses about a hundred distinct SQL texts.
const PLAN_CACHE_CAPACITY: usize = 256;

/// The search's winners, per planner policy and exact SQL text: each plan
/// without prune annotations, and its explanation, whose
/// [`crate::PlanOrigin::epoch`] is the statistics epoch it was priced at.
/// One map per policy, so a lookup borrows the SQL text.
type PlanCache = HashMap<PlannerPolicy, HashMap<String, (QueryPlan, PlanExplanation)>>;

/// The mediator: owns the OWF catalog and the connection to the (simulated)
/// web-service world.
///
/// ```no_run
/// use std::sync::Arc;
/// use wsmed_core::Wsmed;
/// use wsmed_netsim::{Network, SimConfig};
/// use wsmed_services::{install_paper_services, Dataset, DatasetConfig};
///
/// let network = Network::new(SimConfig::new(0.001, 42));
/// let dataset = Arc::new(Dataset::generate(DatasetConfig::small()));
/// let registry = install_paper_services(network, dataset);
/// let mut wsmed = Wsmed::new(registry);
/// wsmed.import_all_wsdl().unwrap();
/// let report = wsmed
///     .run_parallel("select gs.State from GetAllStates gs", &vec![])
///     .unwrap_err(); // GetAllStates alone has nothing to parallelize
/// # let _ = report;
/// ```
pub struct Wsmed {
    transport: Arc<SimTransport>,
    /// Shared with every run's context; [`Wsmed::import_wsdl`] copies it on
    /// write when a run still holds the old catalog.
    owfs: Arc<OwfCatalog>,
    sim: SimConfig,
    /// Everything the setters below can set. They are its only writers
    /// and every execution clones it exactly once, so a run sees one
    /// consistent configuration whatever is set while it is in flight.
    config: RwLock<MediatorConfig>,
    /// Monotone query-id source for cross-query cache attribution
    /// (starts at 1; id 0 is the standalone-context sentinel).
    next_query_id: AtomicU64,
    /// Calibrated + learned provider statistics feeding the cost model:
    /// warm-started from the transport's provider profiles at WSDL import,
    /// refined from execution observations under a cost-based policy.
    planner_stats: Arc<PlannerStats>,
    /// Client-side cost model parameters (startup and default estimates).
    cost_model: CostModel,
    /// See [`Wsmed::plan_query_explained`].
    plan_cache: RwLock<PlanCache>,
}

impl Wsmed {
    /// Creates a mediator over a service registry. The simulation config is
    /// taken from the registry's network.
    pub fn new(registry: ServiceRegistry) -> Self {
        let sim = registry.network().config().clone();
        Wsmed {
            transport: Arc::new(SimTransport::new(registry)),
            owfs: Arc::new(OwfCatalog::new()),
            sim,
            config: RwLock::new(MediatorConfig::default()),
            next_query_id: AtomicU64::new(1),
            planner_stats: PlannerStats::new(),
            cost_model: CostModel::default(),
            plan_cache: RwLock::default(),
        }
    }

    /// Installs (or clears, with `None`) the client-side replica routing
    /// policy for subsequent executions. Routing only engages for OWFs
    /// whose provider was scaled out into a
    /// [`wsmed_netsim::ReplicaGroup`]; single-provider calls keep the
    /// direct path bit for bit. The router instance is shared by the runs
    /// that start under it, so its deterministic rotation stays coherent
    /// across concurrent queries.
    pub fn set_router_policy(&self, policy: Option<RouterPolicy>) {
        self.config.write().router =
            policy.map(|policy| Arc::new(Router::new(policy, self.sim.seed)));
    }

    /// The currently installed routing policy, if any.
    pub fn router_policy(&self) -> Option<RouterPolicy> {
        self.config.read().router.as_ref().map(|r| r.policy())
    }

    /// Re-warms the planner's provider statistics from the transport's
    /// current profiles. Call after reshaping the replica topology
    /// ([`wsmed_netsim::Network::replicate`]) so the cost model prices
    /// fanout against the group's pooled effective capacity instead of
    /// the single seed provider's.
    pub fn reseed_profiles(&self) {
        for name in self.owfs.names() {
            if let Ok(owf) = self.owfs.get(name) {
                if let Some(profile) = self.transport.provider_profile(owf) {
                    self.planner_stats.seed_profile(&owf.name, profile);
                }
            }
        }
    }

    /// Installs the structured-trace policy for subsequent executions.
    /// Tracing is off by default.
    pub fn set_trace_policy(&mut self, policy: TracePolicy) {
        self.config.get_mut().trace = policy;
    }

    /// Installs the planning policy used by [`Wsmed::plan_query`] and
    /// [`Wsmed::run_planned`]. The default ([`PlannerPolicy::Heuristic`])
    /// reproduces the paper's plans exactly; takes `&self` so the shell and
    /// concurrent queries can toggle it on a shared mediator.
    pub fn set_planner_policy(&self, policy: PlannerPolicy) {
        self.config.write().planner = policy;
    }

    /// The current planning policy.
    pub fn planner_policy(&self) -> PlannerPolicy {
        self.config.read().planner
    }

    /// The mediator's provider-statistics store: calibrated profiles seeded
    /// at WSDL import plus per-operator observations harvested from runs
    /// executed under a cost-based policy.
    pub fn planner_stats(&self) -> &Arc<PlannerStats> {
        &self.planner_stats
    }

    /// The client-side cost model the planner estimates with.
    pub fn cost_model(&self) -> &CostModel {
        &self.cost_model
    }

    /// Installs the admission-control quota policy (max concurrent
    /// queries, global and per-tenant in-flight call budgets) for
    /// subsequent executions; a run already admitted keeps the quota it
    /// started under, and its reservations.
    pub fn set_quota_policy(&self, policy: QuotaPolicy) {
        self.config.write().quota = policy;
    }

    /// The mediator's admission controller, for quota inspection
    /// ([`AdmissionControl::stats`]).
    pub fn admission(&self) -> Arc<AdmissionControl> {
        Arc::clone(&self.config.read().admission)
    }

    /// Lifetime transition totals of the mediator-global breaker table.
    pub fn breaker_totals(&self) -> BreakerTotals {
        self.config.read().breakers.totals()
    }

    /// Enables the warm process pool with the default [`PoolPolicy`]:
    /// idle query processes are parked at end of run and reused (plan
    /// function already installed — no modeled startup or plan-ship cost)
    /// by later executions of the same plan function. A thin wrapper over
    /// [`Wsmed::set_pool_policy`].
    pub fn enable_process_pool(&mut self, enabled: bool) {
        self.set_pool_policy(enabled.then(PoolPolicy::default));
    }

    /// Installs a process-pool policy (`None` removes the pool). A policy
    /// change rebuilds the pool: parked processes of the old pool are
    /// joined once the last run using it has finished.
    pub fn set_pool_policy(&mut self, policy: Option<PoolPolicy>) {
        self.config.get_mut().pool =
            policy.map(|p| Arc::new(ProcessPool::new(p, self.sim.time_scale)));
    }

    /// The live process pool, if one is installed — for inspecting the
    /// parked-process census across runs (a run's own pool counters are
    /// in its [`crate::ExecutionReport::pool`]).
    /// Parked query processes live here between executions — and, since
    /// warm attach re-homes a parked subtree into the acquiring run's
    /// context, across concurrent queries too.
    pub fn process_pool(&self) -> Option<Arc<ProcessPool>> {
        self.config.read().pool.clone()
    }

    /// Installs a call-cache policy (`None` disables caching): repeated
    /// calls with identical arguments are answered from memory, which is
    /// sound for side-effect-free data providing services. The cache
    /// instance built here is shared by every execution. Busy-period
    /// semantics inside the cache clear per-run state on the idle→busy
    /// edge, so sequential runs under a non-cross-run policy still see a
    /// fresh cache while overlapping runs share entries and in-flight
    /// latches; with [`CachePolicy::cross_run`] later queries reuse
    /// earlier answers.
    pub fn set_cache_policy(&mut self, policy: Option<CachePolicy>) {
        self.config.get_mut().cache =
            policy.map(|p| Arc::new(CallCache::new(p, self.sim.time_scale)));
    }

    /// The live cache instance, if caching is enabled — for inspecting
    /// resident entries across runs (a run's own cache counters are in
    /// its [`crate::ExecutionReport::cache`]).
    pub fn call_cache(&self) -> Option<Arc<CallCache>> {
        self.config.read().cache.clone()
    }

    /// Sets the `FF_APPLYP` parameter dispatch policy for subsequent
    /// executions (the ablation knob; defaults to first-finished).
    pub fn set_dispatch_policy(&mut self, policy: DispatchPolicy) {
        self.config.get_mut().dispatch = policy;
    }

    /// Sets the tuple-shipping batch policy for subsequent executions
    /// (vectorized `Call`/`ResultBatch` frames; the default of one tuple
    /// per frame reproduces the paper's streaming semantics exactly).
    pub fn set_batch_policy(&mut self, policy: BatchPolicy) {
        self.config.get_mut().batch = policy;
    }

    /// Sets the full resilience policy (retries with backoff and jitter,
    /// per-call deadline, circuit breaker, hedging, failure mode) for all
    /// subsequent executions.
    pub fn set_resilience_policy(&mut self, policy: ResiliencePolicy) {
        self.config.get_mut().resilience = policy;
    }

    /// The currently configured resilience policy.
    pub fn resilience_policy(&self) -> ResiliencePolicy {
        self.config.read().resilience
    }

    /// Imports one WSDL document by URI, generating OWFs for its
    /// operations. Returns the generated OWF (= view) names.
    pub fn import_wsdl(&mut self, wsdl_uri: &str) -> CoreResult<Vec<String>> {
        let xml = self.transport.registry().wsdl_xml(wsdl_uri)?;
        let doc = wsmed_wsdl::parse_wsdl(&xml)?;
        let names = Arc::make_mut(&mut self.owfs).import(&doc, wsdl_uri)?;
        // Warm-start the planner's provider statistics from the transport's
        // calibrated profiles (latency model + capacity) for the new OWFs.
        for name in &names {
            if let Ok(owf) = self.owfs.get(name) {
                if let Some(profile) = self.transport.provider_profile(owf) {
                    self.planner_stats.seed_profile(&owf.name, profile);
                }
            }
        }
        // Cached plans and warm processes were compiled against the old
        // catalog.
        self.plan_cache.get_mut().clear();
        if let Some(pool) = &self.config.get_mut().pool {
            pool.clear();
        }
        Ok(names)
    }

    /// Imports every WSDL the registry knows about.
    pub fn import_all_wsdl(&mut self) -> CoreResult<Vec<String>> {
        let uris: Vec<String> = self
            .transport
            .registry()
            .wsdl_uris()
            .into_iter()
            .map(str::to_owned)
            .collect();
        let mut names = Vec::new();
        for uri in uris {
            names.extend(self.import_wsdl(&uri)?);
        }
        Ok(names)
    }

    /// The imported OWF names, sorted.
    pub fn owf_names(&self) -> Vec<&str> {
        self.owfs.names()
    }

    /// The OWF catalog.
    pub fn owfs(&self) -> &OwfCatalog {
        &self.owfs
    }

    /// The service registry (for metrics and fault injection in tests).
    pub fn registry(&self) -> &ServiceRegistry {
        self.transport.registry()
    }

    /// Generates the calculus expression for a query (paper §IV).
    pub fn calculus(&self, sql: &str) -> CoreResult<CalculusExpr> {
        let stmt = wsmed_sql::parse_select(sql)?;
        let catalog = self.owfs.sql_catalog();
        Ok(wsmed_sql::generate_calculus(&stmt, &catalog)?)
    }

    /// Compiles the naïve central plan (Fig. 6 / Fig. 10).
    pub fn compile_central(&self, sql: &str) -> CoreResult<QueryPlan> {
        let calc = self.calculus(sql)?;
        create_central_plan(&calc, &self.owfs, builtin_functions())
    }

    /// Number of parallelizable levels in a query — the length the fanout
    /// vector must have.
    pub fn parallel_levels(&self, sql: &str) -> CoreResult<usize> {
        Ok(parallel_level_count(&self.compile_central(sql)?))
    }

    /// Compiles a manually parallelized plan with the given fanout vector
    /// (Fig. 9 / Fig. 13).
    pub fn compile_parallel(&self, sql: &str, fanouts: &FanoutVector) -> CoreResult<QueryPlan> {
        parallelize(&self.compile_central(sql)?, fanouts)
    }

    /// Compiles a parallel plan *without* the parameter-projection
    /// optimization (full prefix tuples are shipped). For the shipping-cost
    /// ablation; results are identical to [`Wsmed::compile_parallel`].
    pub fn compile_parallel_unprojected(
        &self,
        sql: &str,
        fanouts: &FanoutVector,
    ) -> CoreResult<QueryPlan> {
        crate::parallel::parallelize_unprojected(&self.compile_central(sql)?, fanouts)
    }

    /// Compiles an adaptive plan using `AFF_APPLYP` (§V.A).
    pub fn compile_adaptive(&self, sql: &str, config: &AdaptiveConfig) -> CoreResult<QueryPlan> {
        parallelize_adaptive(&self.compile_central(sql)?, config)
    }

    /// Plans a query under the installed [`PlannerPolicy`] and returns the
    /// plan together with the planner's decision record.
    ///
    /// Under [`PlannerPolicy::Heuristic`] this is byte-identical to
    /// [`Wsmed::compile_parallel`] with a fanout vector of 2s. Under
    /// [`PlannerPolicy::CostBased`] the planner searches binding-valid join
    /// orderings, section merges, and fanouts for the estimated-makespan
    /// argmin; with `prune: true` it additionally annotates plan functions
    /// with learned empty-parameter drop lists (semi-join pruning).
    ///
    /// A text is searched once per statistics epoch
    /// ([`PlannerStats::epoch`]): the winner is kept per (policy, SQL text)
    /// and reused, re-annotated with the current prune sets, while the
    /// epoch it was priced at is still current. The search itself stays
    /// reachable as [`planner::plan_with_policy`].
    pub fn plan_query_explained(&self, sql: &str) -> CoreResult<(QueryPlan, PlanExplanation)> {
        let policy = self.planner_policy();
        let stats = &*self.planner_stats;
        let hit = self
            .plan_cache
            .read()
            .get(&policy)
            .and_then(|plans| plans.get(sql))
            .filter(|(_, explanation)| explanation.origin.epoch == stats.epoch())
            .cloned();
        let (mut plan, mut explanation) = match hit {
            Some((plan, mut explanation)) => {
                explanation.origin.cached = true;
                (plan, explanation)
            }
            None => {
                let calc = self.calculus(sql)?;
                // A search that overlapped an epoch advance may have priced
                // with two epochs' statistics: search again.
                let planned = loop {
                    let planned = planner::plan_with_policy(
                        policy,
                        &calc,
                        &self.owfs,
                        builtin_functions(),
                        stats,
                        &self.cost_model,
                    )?;
                    if planned.explanation.origin.epoch == stats.epoch() {
                        break planned;
                    }
                };
                let mut cache = self.plan_cache.write();
                if cache.values().map(HashMap::len).sum::<usize>() >= PLAN_CACHE_CAPACITY {
                    cache.clear();
                }
                cache.entry(policy).or_default().insert(
                    sql.to_owned(),
                    (planned.parallel.clone(), planned.explanation.clone()),
                );
                (planned.parallel, planned.explanation)
            }
        };
        if let PlannerPolicy::CostBased { prune: true } = policy {
            explanation.prune_sections = planner::annotate_prune(&mut plan, stats);
        }
        Ok((plan, explanation))
    }

    /// Plans held by the plan cache, over all policies, fresh or not.
    pub fn cached_plans(&self) -> usize {
        self.plan_cache.read().values().map(HashMap::len).sum()
    }

    /// Plans a query under the installed [`PlannerPolicy`]; see
    /// [`Wsmed::plan_query_explained`].
    pub fn plan_query(&self, sql: &str) -> CoreResult<QueryPlan> {
        Ok(self.plan_query_explained(sql)?.0)
    }

    /// The planner's decision record for a query — join order, section
    /// splits, per-level estimated cost, and pushed-down semi-join filters —
    /// without executing anything.
    pub fn plan_explain(&self, sql: &str) -> CoreResult<PlanExplanation> {
        Ok(self.plan_query_explained(sql)?.1)
    }

    /// Compile + execute under the installed [`PlannerPolicy`].
    pub fn run_planned(&self, sql: &str) -> CoreResult<ExecutionReport> {
        let plan = self.plan_query(sql)?;
        self.execute(&plan)
    }

    /// Executes any compiled plan as the coordinator, attributed to the
    /// default tenant. Takes `&self`: concurrent executions from many
    /// threads over one mediator are supported and share the call cache,
    /// process pool, breaker table, and admission controller.
    pub fn execute(&self, plan: &QueryPlan) -> CoreResult<ExecutionReport> {
        self.execute_for(DEFAULT_TENANT, plan)
    }

    /// Executes any compiled plan on behalf of `tenant`. The run is gated
    /// by the mediator's [`QuotaPolicy`]: over-quota executions fail fast
    /// with [`crate::CoreError::Admission`] without compiling a context.
    pub fn execute_for(&self, tenant: &str, plan: &QueryPlan) -> CoreResult<ExecutionReport> {
        self.execute_traced_for(tenant, plan).0
    }

    /// Executes a plan as the default tenant, returning the run's trace log
    /// alongside the result — also when the run itself failed, so failed
    /// runs can be post-mortemed (successful runs additionally surface the
    /// same log on [`ExecutionReport::trace`]).
    pub fn execute_traced(
        &self,
        plan: &QueryPlan,
    ) -> (CoreResult<ExecutionReport>, Option<Arc<TraceLog>>) {
        self.execute_traced_for(DEFAULT_TENANT, plan)
    }

    /// Executes a plan on behalf of `tenant`, returning the run's trace log
    /// alongside the result (see [`Wsmed::execute_traced`]). Unlike the
    /// removed mediator-global `last_trace` stash, the returned log belongs
    /// to *this* run — nothing races it under concurrent executions.
    fn execute_traced_for(
        &self,
        tenant: &str,
        plan: &QueryPlan,
    ) -> (CoreResult<ExecutionReport>, Option<Arc<TraceLog>>) {
        let (_guard, ctx) = match self.admit(tenant) {
            Ok(admitted) => admitted,
            Err(e) => return (Err(e), None),
        };
        let result = ctx.run_plan(plan);
        (result, ctx.trace_handle())
    }

    /// Admits one query of `tenant` under the mediator's [`QuotaPolicy`]
    /// and builds its run's context from the run's one consistent view of
    /// the mediator's configuration. The guard holds the query's slot.
    fn admit(&self, tenant: &str) -> CoreResult<(QueryGuard, Arc<ExecContext>)> {
        let config = self.config.read().clone();
        let guard = config.admission.admit_query(tenant, config.quota)?;
        let query_id = self.next_query_id.fetch_add(1, Ordering::Relaxed);
        let ctx = self.context(config.for_run(tenant, query_id, &self.planner_stats));
        Ok((guard, ctx))
    }

    /// Executes a plan on behalf of `tenant`, attributing every terminal
    /// outcome to a recorded arrival instant — the open-loop hookpoint.
    ///
    /// Closed-loop timing starts the clock when execution starts; under
    /// load, that hides queueing delay. Here the caller passes the moment
    /// the query *arrived* (which may lie in the past if the dispatcher
    /// lagged), and the outcome carries wall time from that arrival to the
    /// terminal event:
    ///
    /// * admission rejection ([`crate::CoreError::Admission`], from the
    ///   query quota up front or a call quota mid-run) terminates as
    ///   [`ArrivalOutcome::Shed`] with an arrival→reject latency — shed
    ///   work is *never* reported as a completion;
    /// * any other error terminates as [`ArrivalOutcome::Failed`];
    /// * success terminates as [`ArrivalOutcome::Completed`] with the
    ///   arrival→last-row latency next to the report's own run-scoped
    ///   [`ExecutionReport::wall`].
    pub fn execute_arrival_for(
        &self,
        tenant: &str,
        plan: &QueryPlan,
        arrival: std::time::Instant,
    ) -> ArrivalOutcome {
        let (result, _) = self.execute_traced_for(tenant, plan);
        let latency_wall = arrival.elapsed();
        match result {
            Ok(report) => ArrivalOutcome::Completed {
                report: Box::new(report),
                latency_wall,
            },
            Err(crate::CoreError::Admission { reason, .. }) => ArrivalOutcome::Shed {
                latency_wall,
                reason,
            },
            Err(error) => ArrivalOutcome::Failed {
                latency_wall,
                error,
            },
        }
    }

    /// A context over this mediator's transport and catalog. Always one
    /// per run: warm pool processes re-home into the acquiring run's
    /// context on attach, so no persistent context is needed for pooling.
    fn context(&self, cfg: RunConfig) -> Arc<ExecContext> {
        ExecContext::new(
            Arc::clone(&self.transport) as Arc<dyn WsTransport>,
            Arc::clone(&self.owfs),
            self.sim.clone(),
            cfg,
        )
    }

    /// Compile + execute the central plan.
    pub fn run_central(&self, sql: &str) -> CoreResult<ExecutionReport> {
        let plan = self.compile_central(sql)?;
        self.execute(&plan)
    }

    /// Compile + execute with the WSQ/DSQ-style baseline (§VI): level-at-a-
    /// time materialization with unbounded asynchronous calls per level.
    /// Returns only the rows (the baseline has no process tree to report).
    /// The run is admitted and configured like any other execution of the
    /// default tenant.
    pub fn run_materialized(&self, sql: &str) -> CoreResult<Vec<wsmed_store::Tuple>> {
        let plan = self.compile_central(sql)?;
        let (_guard, ctx) = self.admit(DEFAULT_TENANT)?;
        crate::materialized::run_materialized(&ctx, &plan)
    }

    /// Compile + execute with explicit fanouts.
    pub fn run_parallel(&self, sql: &str, fanouts: &FanoutVector) -> CoreResult<ExecutionReport> {
        let plan = self.compile_parallel(sql, fanouts)?;
        self.execute(&plan)
    }

    /// Compile + execute adaptively.
    pub fn run_adaptive(&self, sql: &str, config: &AdaptiveConfig) -> CoreResult<ExecutionReport> {
        let plan = self.compile_adaptive(sql, config)?;
        self.execute(&plan)
    }

    /// Human-readable compilation trace: calculus, central plan and (when a
    /// fanout vector is given) the parallel plan.
    pub fn explain(&self, sql: &str, fanouts: Option<&FanoutVector>) -> CoreResult<String> {
        use std::fmt::Write as _;
        let mut out = String::new();
        let calc = self.calculus(sql)?;
        writeln!(out, "== calculus ==\n{calc}\n").expect("write to string");
        let central = self.compile_central(sql)?;
        writeln!(out, "== central plan ==\n{central}").expect("write to string");
        if let Some(fanouts) = fanouts {
            let parallel = parallelize(&central, fanouts)?;
            writeln!(out, "== parallel plan (fanouts {fanouts:?}) ==\n{parallel}")
                .expect("write to string");
        }
        Ok(out)
    }
}

/// Terminal outcome of an arrival-attributed execution
/// ([`Wsmed::execute_arrival_for`]). Every variant carries the wall time
/// from the recorded arrival instant to the terminal event, so open-loop
/// harnesses measure queueing delay plus service time, and a shed query
/// contributes an (arrival → reject) sample instead of vanishing.
#[derive(Debug)]
pub enum ArrivalOutcome {
    /// The query ran to completion.
    Completed {
        /// The run's report (boxed: the variant dwarfs the others).
        report: Box<ExecutionReport>,
        /// Arrival → last result row, in wall time.
        latency_wall: std::time::Duration,
    },
    /// Admission control shed the query (query quota at admission, or a
    /// call quota mid-run). Counted in
    /// [`crate::resilience::AdmissionStats`], never as goodput.
    Shed {
        /// Arrival → rejection, in wall time.
        latency_wall: std::time::Duration,
        /// The admission controller's reason string.
        reason: String,
    },
    /// The query failed for a non-admission reason.
    Failed {
        /// Arrival → failure, in wall time.
        latency_wall: std::time::Duration,
        /// The terminal error.
        error: crate::CoreError,
    },
}

impl ArrivalOutcome {
    /// The arrival→terminal wall latency, whatever the outcome.
    pub fn latency_wall(&self) -> std::time::Duration {
        match self {
            ArrivalOutcome::Completed { latency_wall, .. }
            | ArrivalOutcome::Shed { latency_wall, .. }
            | ArrivalOutcome::Failed { latency_wall, .. } => *latency_wall,
        }
    }

    /// The completed report, if the query ran to completion.
    pub fn report(&self) -> Option<&ExecutionReport> {
        match self {
            ArrivalOutcome::Completed { report, .. } => Some(report),
            _ => None,
        }
    }
}

impl std::fmt::Debug for Wsmed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Wsmed")
            .field("owfs", &self.owfs.names())
            .finish()
    }
}

/// The paper's experimental workload: queries, setup helper, and the SQL
/// text of Fig. 1 and Fig. 3.
pub mod paper {
    use super::*;
    use wsmed_netsim::Network;
    use wsmed_services::{install_paper_services, Dataset, DatasetConfig};

    /// Query1 (paper Fig. 1): places within 15 km of each Atlanta.
    pub const QUERY1_SQL: &str = "\
        Select gl.placename, gl.state \
        From GetAllStates gs, GetPlacesWithin gp, GetPlaceList gl \
        Where gs.State=gp.state and gp.distance=15.0 \
          and gp.placeTypeToFind='City' and gp.place='Atlanta' \
          and gl.placeName=gp.ToPlace+', '+gp.ToState \
          and gl.MaxItems=100 and gl.imagePresence='true'";

    /// Query2 (paper Fig. 3): the zip code and state of 'USAF Academy'.
    pub const QUERY2_SQL: &str = "\
        select gp.ToState, gp.zip \
        From GetAllStates gs, GetInfoByState gi, getzipcode gc, GetPlacesInside gp \
        Where gs.State=gi.USState and gi.GetInfoByStateResult=gc.zipstr \
          and gc.zipcode=gp.zip and gp.ToPlace='USAF Academy'";

    /// Query3 (this repository's extension workload): every delayed
    /// departure in the country — a *three*-level dependent chain
    /// (`GetAirports` → `GetDepartures` → `GetFlightStatus`), exercising
    /// §VII's "any number of dependent joins" against simulated services.
    pub const QUERY3_SQL: &str = "\
        select d.FlightNo, a.Code, fs.DelayMinutes \
        From GetAllStates gs, GetAirports a, GetDepartures d, GetFlightStatus fs \
        Where gs.State = a.stateAbbr and a.Code = d.airportCode \
          and d.FlightNo = fs.flightNo and fs.Status = 'Delayed' \
        order by d.FlightNo";

    /// A fully wired mediator over the paper's four simulated services.
    pub struct PaperSetup {
        /// The mediator, with all four WSDLs imported.
        pub wsmed: Wsmed,
        /// The simulated network (for metrics and fault injection).
        pub network: Arc<Network>,
        /// The synthetic dataset behind the services.
        pub dataset: Arc<Dataset>,
    }

    /// Builds the paper's world: network at `time_scale`, the four
    /// services over `dataset_config`, WSDLs imported.
    pub fn setup(time_scale: f64, dataset_config: DatasetConfig) -> PaperSetup {
        let network = Network::new(SimConfig::new(time_scale, 0x5EED_1CDE));
        let dataset = Arc::new(Dataset::generate(dataset_config));
        let registry = install_paper_services(Arc::clone(&network), Arc::clone(&dataset));
        let mut wsmed = Wsmed::new(registry);
        wsmed
            .import_all_wsdl()
            .expect("paper services import cleanly");
        PaperSetup {
            wsmed,
            network,
            dataset,
        }
    }
}
