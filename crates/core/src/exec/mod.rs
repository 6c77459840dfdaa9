//! Plan execution: the coordinator-side interpreter plus the query-process
//! runtime for `FF_APPLYP` / `AFF_APPLYP`.

mod mailbox;
mod parallel_op;
pub mod pool;
mod process;
mod runtime;

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use wsmed_netsim::SimConfig;
use wsmed_store::{FunctionRegistry, Tuple, Value};
use wsmed_wsdl::OwfDef;

use crate::cache::{CacheKey, CacheScope, CacheStats, CallCache, CallLookup};
use crate::catalog::OwfCatalog;
use crate::config::RunConfig;
use crate::exec::pool::{PoolScope, PoolStats, ProcessPool};
use crate::obs::{self, TraceEventKind, TraceLog};
use crate::plan::{ArgExpr, PlanOp, QueryPlan};
use crate::resilience::{
    self, BreakerPolicy, FailureMode, ResilienceCollector, ResiliencePolicy, Transition,
};
use crate::router::{GroupView, Router, RouterCollector};
use crate::stats::{ExecutionReport, TreeRegistry, TreeSnapshot};
use crate::transport::{BatchPolicy, DispatchPolicy, WsTransport};
use crate::{CoreError, CoreResult};

use parallel_op::ParallelApply;
use process::SpawnCounts;
pub use runtime::blocking;

/// How long the coordinator waits without any wake-up before declaring the
/// process tree wedged. Generously above any modeled latency at the time
/// scales used in tests and benches.
const WEDGE_PATIENCE: Duration = Duration::from_secs(120);

/// Identity of the query process executing a plan fragment.
#[derive(Debug, Clone, Copy)]
pub struct ProcEnv {
    /// Process id in the tree registry (coordinator = 0).
    pub id: u64,
    /// Tree level (coordinator = 0).
    pub level: usize,
}

/// The built-in helping functions, built once and shared by every context
/// and every compilation.
pub(crate) fn builtin_functions() -> &'static FunctionRegistry {
    static BUILTINS: OnceLock<FunctionRegistry> = OnceLock::new();
    BUILTINS.get_or_init(FunctionRegistry::with_builtins)
}

/// One run's execution state: transport, OWF catalog, simulation config,
/// the run's [`RunConfig`], its process tree, trace log and counters.
///
/// A context is built complete by [`ExecContext::new`] and executes one
/// plan ([`ExecContext::run_plan`]); nothing about it can be reconfigured
/// afterwards. What runs share (call cache, process pool, breaker table,
/// router) they share by being given the same instances in their configs.
pub struct ExecContext {
    transport: Arc<dyn WsTransport>,
    owfs: Arc<OwfCatalog>,
    sim: SimConfig,
    cfg: RunConfig,
    tree: Arc<TreeRegistry>,
    /// This run's trace log, when its trace policy is enabled.
    trace: Option<Arc<TraceLog>>,
    /// Run epoch: the origin of the wall and first-result measurements.
    started: Instant,
    next_id: AtomicU64,
    /// Parameter/result/plan bytes shipped between query processes.
    shipped_bytes: AtomicU64,
    /// Nanoseconds from run start until the coordinator saw its first
    /// result tuple (0 = not yet / not applicable).
    first_result_nanos: AtomicU64,
    /// Resilience counters behind [`crate::ResilienceStats`].
    res_stats: ResilienceCollector,
    /// Routing counters behind [`crate::RouterStats`].
    router_stats: RouterCollector,
    /// Per-query attribution of shared-cache traffic.
    cache_scope: CacheScope,
    /// Per-query attribution of warm-pool traffic.
    pool_scope: PoolScope,
    /// Web service calls this run issued (cache hits excluded; every
    /// attempt that reached the transport counts).
    ws_calls: AtomicU64,
    /// Wire bytes (request + response) those calls moved.
    ws_bytes: AtomicU64,
    /// Countdown of [`RunConfig::kill_child_after_eocs`].
    kill_child_countdown: AtomicU64,
    /// Parameter tuples dropped parent-side by semi-join pruning.
    pruned_params: AtomicU64,
    /// The processes this run spawned cold, installing and running.
    spawn_counts: Arc<SpawnCounts>,
}

impl ExecContext {
    /// Creates the context of one run under `cfg`.
    pub fn new(
        transport: Arc<dyn WsTransport>,
        owfs: Arc<OwfCatalog>,
        sim: SimConfig,
        cfg: RunConfig,
    ) -> Arc<Self> {
        // The log's epoch doubles as the run epoch for model timestamps.
        let trace = cfg
            .trace
            .enabled
            .then(|| Arc::new(TraceLog::new(cfg.trace, sim.time_scale)));
        Arc::new(ExecContext {
            transport,
            owfs,
            sim,
            tree: TreeRegistry::new(),
            trace,
            started: Instant::now(),
            next_id: AtomicU64::new(1),
            shipped_bytes: AtomicU64::new(0),
            first_result_nanos: AtomicU64::new(0),
            res_stats: ResilienceCollector::default(),
            router_stats: RouterCollector::default(),
            cache_scope: CacheScope::new(cfg.query_id),
            pool_scope: PoolScope::default(),
            ws_calls: AtomicU64::new(0),
            ws_bytes: AtomicU64::new(0),
            kill_child_countdown: AtomicU64::new(cfg.kill_child_after_eocs),
            pruned_params: AtomicU64::new(0),
            spawn_counts: Arc::default(),
            cfg,
        })
    }

    /// The OWF catalog.
    pub(crate) fn owfs(&self) -> &OwfCatalog {
        &self.owfs
    }

    /// The simulation config (client cost model + time scale).
    pub(crate) fn sim(&self) -> &SimConfig {
        &self.sim
    }

    /// The live process-tree registry of this run.
    pub(crate) fn tree(&self) -> &Arc<TreeRegistry> {
        &self.tree
    }

    /// The processes this run spawned cold.
    pub(crate) fn spawn_counts(&self) -> &Arc<SpawnCounts> {
        &self.spawn_counts
    }

    /// The query-level failure mode.
    pub(crate) fn failure_mode(&self) -> FailureMode {
        self.cfg.resilience.failure_mode
    }

    /// Per-query cache attribution scope.
    pub(crate) fn cache_scope(&self) -> &CacheScope {
        &self.cache_scope
    }

    /// Per-query pool attribution scope.
    pub(crate) fn pool_scope(&self) -> &PoolScope {
        &self.pool_scope
    }

    /// The single chokepoint where this context touches the wire: meters
    /// calls and bytes onto per-context counters (correct under
    /// concurrent queries, unlike diffing global provider metrics) and
    /// emits the per-call trace event. `replica` pins the call to the
    /// member of the OWF's provider group the router chose.
    fn transport_call(
        &self,
        owf: &OwfDef,
        args: &[Value],
        deadline_model_secs: Option<f64>,
        replica: Option<&str>,
    ) -> CoreResult<Value> {
        // Latency observation for the cost-based planner: the model-time
        // delta across the (blocking, latency-sleeping) call is the call's
        // own latency. Meaningless at time scale 0, where calls are
        // instant — the calibrated seed profiles stand in there.
        let observer = self
            .planner_obs()
            .filter(|_| self.sim.time_scale > 0.0)
            .map(|obs| (obs, self.transport.model_now()));
        let result = self.transport.call(owf, args, deadline_model_secs, replica);
        if let (Some((obs, started)), Ok(_)) = (observer, &result) {
            obs.observe_latency(&owf.name, self.transport.model_now() - started);
        }
        self.ws_calls.fetch_add(1, Ordering::Relaxed);
        if let Ok((_, bytes)) = &result {
            self.ws_bytes.fetch_add(*bytes, Ordering::Relaxed);
        }
        if self.tracing() {
            self.trace_here(TraceEventKind::WsCall {
                op: owf.operation.clone(),
                ok: result.is_ok(),
                err: result
                    .as_ref()
                    .err()
                    .map(|e| crate::transport::error_class(e).to_owned()),
            });
        }
        result.map(|(value, _bytes)| value)
    }

    /// Routes one skipped parameter tuple (partial failure mode): into
    /// the calling thread's skip sink inside a child query process (it
    /// ships with the end-of-call message, committing together with the
    /// call's rows), or straight onto the run's collector at the
    /// coordinator.
    pub(crate) fn note_param_skip(&self, owf: &str) {
        if self.tracing() {
            self.trace_here(TraceEventKind::ParamSkipped { op: owf.to_owned() });
        }
        if !resilience::note_skip_local(owf) {
            self.res_stats.note_skips(owf, 1);
        }
    }

    /// Commits a batch of child-reported skips (successful end-of-call):
    /// re-routes through the local sink so skips propagate correctly
    /// through nested parallel operators, falling back to the collector
    /// at the coordinator.
    pub(crate) fn commit_skips(&self, skips: &[(String, u64)]) {
        for (owf, n) in skips {
            for _ in 0..*n {
                if !resilience::note_skip_local(owf) {
                    self.res_stats.note_skips(owf, 1);
                }
            }
        }
    }

    /// The parameter dispatch policy for fixed-fanout operators.
    pub(crate) fn dispatch_policy(&self) -> DispatchPolicy {
        self.cfg.dispatch
    }

    /// The tuple batching policy for parent↔child message frames.
    pub(crate) fn batch_policy(&self) -> BatchPolicy {
        self.cfg.batch
    }

    /// The call cache this run memoizes through, if any.
    pub(crate) fn call_cache(&self) -> Option<&Arc<CallCache>> {
        self.cfg.cache.as_ref()
    }

    /// The warm process pool, if the run has one and it is still alive.
    pub(crate) fn process_pool(&self) -> Option<Arc<ProcessPool>> {
        self.cfg.pool.upgrade()
    }

    /// This run's trace log, when tracing is enabled. Also surfaced on
    /// [`crate::ExecutionReport::trace`].
    pub(crate) fn trace_handle(&self) -> Option<Arc<TraceLog>> {
        self.trace.clone()
    }

    /// True when this run records a trace. Hook sites that must allocate
    /// to build an event payload check this first.
    pub(crate) fn tracing(&self) -> bool {
        self.trace.is_some()
    }

    /// The live trace log, `None` when disabled.
    pub(crate) fn tracer(&self) -> Option<&TraceLog> {
        self.trace.as_deref()
    }

    /// Records a trace event attributed to the process-tree node the
    /// calling thread is bound to (coordinator or child query process).
    pub(crate) fn trace_here(&self, kind: TraceEventKind) {
        if let Some(log) = &self.trace {
            let (id, level, pf) = obs::current_proc();
            log.emit(id, level, &pf, kind);
        }
    }

    /// The planner-statistics sink, `None` when planner observation is off.
    pub(crate) fn planner_obs(&self) -> Option<&crate::costs::PlannerStats> {
        self.cfg.planner_obs.as_deref()
    }

    /// Counts parameter tuples dropped parent-side by semi-join pruning.
    pub(crate) fn note_pruned_params(&self, n: u64) {
        self.pruned_params.fetch_add(n, Ordering::Relaxed);
    }

    /// Decrements the child-kill countdown; returns `true` exactly once,
    /// when it hits zero.
    pub(crate) fn take_child_failure_trigger(&self) -> bool {
        self.kill_child_countdown
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1))
            == Ok(1)
    }

    /// Calls a web service operation, retrying transient faults per the
    /// run's [`ResiliencePolicy`] and consulting the call cache.
    ///
    /// Concurrent identical calls deduplicate through the cache's
    /// single-flight latch: one query process issues the call, the others
    /// block until it completes and share its value. A failed call
    /// releases the waiters (each retries on its own) and caches nothing.
    pub(crate) fn call_with_retry(&self, owf: &OwfDef, args: &[Value]) -> CoreResult<Value> {
        let Some(cache) = self.call_cache() else {
            return self.call_uncached(owf, args);
        };
        // Cache keys serialize the arguments through the wire format so
        // value equality is structural.
        let key = CacheKey::for_call(&owf.name, args);
        loop {
            match cache.lookup_call_for(&key, Some(&self.cache_scope)) {
                CallLookup::Hit { value, waited } => {
                    if self.tracing() {
                        self.trace_here(TraceEventKind::CacheHit {
                            op: owf.name.clone(),
                            waited,
                        });
                    }
                    return Ok(value);
                }
                CallLookup::Miss(flight) => {
                    if self.tracing() {
                        self.trace_here(TraceEventKind::CacheMiss {
                            op: owf.name.clone(),
                        });
                    }
                    let result = self.call_uncached(owf, args);
                    if let Ok(value) = &result {
                        flight.complete(value);
                    } // dropping the flight on Err releases any waiters
                    return result;
                }
                // The in-flight leader failed; take the lead ourselves.
                CallLookup::Retry => {
                    if self.tracing() {
                        self.trace_here(TraceEventKind::CacheRetry {
                            op: owf.name.clone(),
                        });
                    }
                    continue;
                }
            }
        }
    }

    /// Breaker admission of one attempt against `target` (a replica of
    /// `group`, or the lone provider itself): counts and traces a
    /// half-open transition and a rejection. Returns whether the call may
    /// be issued.
    fn breaker_admits(&self, bp: &BreakerPolicy, group: &str, target: &str, op: &str) -> bool {
        let admission = self
            .cfg
            .breakers
            .admit(target, bp, self.transport.model_now());
        if admission.went_half_open {
            self.res_stats.note_breaker_half_open();
            if self.tracing() {
                self.trace_here(TraceEventKind::BreakerHalfOpen {
                    provider: target.to_owned(),
                });
            }
        }
        if !admission.allowed {
            self.res_stats.note_breaker_rejection(group, target);
            if self.tracing() {
                self.trace_here(TraceEventKind::BreakerReject {
                    provider: target.to_owned(),
                    op: op.to_owned(),
                });
            }
        }
        admission.allowed
    }

    /// One uncached resilient call: breaker admission, bounded attempts
    /// with backoff, per-attempt deadline, optional hedging. With the
    /// default (plain, single-attempt) policy this is exactly one
    /// un-decorated transport call — the paper-reproduction fast path.
    fn call_uncached(&self, owf: &OwfDef, args: &[Value]) -> CoreResult<Value> {
        // Admission first: a shed call must not consume breaker budget or
        // reach the wire. The token spans every attempt (and hedge) of
        // this one logical call.
        let _token = match &self.cfg.admission {
            Some(gate) => match gate.begin_call(&owf.operation) {
                Ok(token) => Some(token),
                Err(e) => {
                    self.res_stats.note_admission_rejection();
                    if self.tracing() {
                        self.trace_here(TraceEventKind::AdmissionReject {
                            tenant: gate.tenant().to_owned(),
                            op: owf.operation.clone(),
                        });
                    }
                    return Err(e);
                }
            },
            None => None,
        };
        let policy = &self.cfg.resilience;
        // Resolve the routable replica view when the run has a router.
        // Resolution advances the topology scenario, so membership events
        // (joins, leaves, autoscale activations) surface here — once per
        // logical call, before any attempt.
        let routing: Option<(&Router, GroupView)> = self
            .cfg
            .router
            .as_deref()
            .and_then(|router| Some((router, self.transport.group_view(owf)?)));
        if let Some((_, view)) = &routing {
            for change in &view.changes {
                self.router_stats.note_membership();
                if self.tracing() {
                    self.trace_here(TraceEventKind::Membership {
                        group: change.group.clone(),
                        replica: change.replica.clone(),
                        joined: change.joined,
                    });
                }
            }
        }
        if routing.is_none() && policy.is_plain() && policy.max_attempts <= 1 {
            return self.transport_call(owf, args, None, None);
        }
        let provider = self.transport.provider_name(owf);
        let breakers = &self.cfg.breakers;
        let mut attempt: usize = 1;
        // Replicas that already failed an attempt of this logical call;
        // routing avoids them while fresh alternatives remain.
        let mut failed_replicas: Vec<String> = Vec::new();
        loop {
            // Pick this attempt's target. Routed: walk the router's choices
            // until one passes breaker admission — a rejected replica is a
            // failover, not a terminal error, and only when *every* routable
            // replica rejects is the group circuit-open. Direct: the single
            // provider's breaker decides alone.
            let route: Option<String> = match &routing {
                Some((router, view)) => {
                    let mut rejected: Vec<String> = Vec::new();
                    let chosen = loop {
                        let exclude: Vec<&str> = failed_replicas
                            .iter()
                            .chain(rejected.iter())
                            .map(String::as_str)
                            .collect();
                        let pick = router.select(view, &exclude).or_else(|| {
                            // Every fresh replica is spoken for: forgive
                            // earlier-attempt failures, but never a replica
                            // whose breaker rejected this very attempt.
                            let rejected_only: Vec<&str> =
                                rejected.iter().map(String::as_str).collect();
                            router.select(view, &rejected_only)
                        });
                        let Some(replica) = pick else { break None };
                        let admitted = match &policy.breaker {
                            Some(bp) => {
                                self.breaker_admits(bp, &provider, &replica, &owf.operation)
                            }
                            None => true,
                        };
                        if admitted {
                            break Some(replica);
                        }
                        self.router_stats.note_failover();
                        if self.tracing() {
                            self.trace_here(TraceEventKind::ReplicaSkipped {
                                group: provider.clone(),
                                replica: replica.clone(),
                                reason: "breaker_open".to_owned(),
                            });
                        }
                        rejected.push(replica);
                    };
                    let Some(replica) = chosen else {
                        // Every routable replica is breaker-rejected (or
                        // the group has no active replica left).
                        return Err(CoreError::CircuitOpen {
                            provider,
                            operation: owf.operation.clone(),
                        });
                    };
                    self.router_stats.note_decision(&provider, &replica);
                    if self.tracing() {
                        self.trace_here(TraceEventKind::RouteDecision {
                            group: provider.clone(),
                            replica: replica.clone(),
                            alternatives: view.replicas.len() as u64,
                        });
                    }
                    Some(replica)
                }
                None => {
                    if let Some(bp) = &policy.breaker {
                        if !self.breaker_admits(bp, &provider, &provider, &owf.operation) {
                            // Terminal for this call: retrying against an open
                            // breaker would only burn the backoff budget.
                            return Err(CoreError::CircuitOpen {
                                provider,
                                operation: owf.operation.clone(),
                            });
                        }
                    }
                    None
                }
            };
            // The breaker (and per-replica counter) key for this attempt:
            // the replica actually called, or the lone provider itself.
            let breaker_key = route.clone().unwrap_or_else(|| provider.clone());
            // Pre-select the hedge's alternate replica (never the primary)
            // so a hedged backup lands on different hardware when any
            // exists. Selected up front — the seq bump is deterministic
            // whether or not the hedge ends up launching.
            let hedge_alt: Option<String> = match (&routing, &route) {
                (Some((router, view)), Some(primary)) if policy.hedge.is_some() => {
                    router.select(view, &[primary.as_str()])
                }
                _ => None,
            };
            match self.call_attempt(owf, args, policy, route.as_deref(), hedge_alt.as_deref()) {
                Ok(value) => {
                    if policy.breaker.is_some()
                        && breakers.on_success(&breaker_key) == Some(Transition::Closed)
                    {
                        self.res_stats.note_breaker_close();
                        if self.tracing() {
                            self.trace_here(TraceEventKind::BreakerClose {
                                provider: breaker_key.clone(),
                            });
                        }
                    }
                    return Ok(value);
                }
                Err(e) if is_transient(&e) => {
                    if matches!(e, CoreError::DeadlineExceeded { .. }) {
                        self.res_stats.note_deadline_exceeded();
                    }
                    if let Some(bp) = &policy.breaker {
                        if breakers.on_failure(&breaker_key, bp, self.transport.model_now())
                            == Some(Transition::Opened)
                        {
                            self.res_stats.note_breaker_open(&provider, &breaker_key);
                            if self.tracing() {
                                self.trace_here(TraceEventKind::BreakerOpen {
                                    provider: breaker_key.clone(),
                                });
                            }
                        }
                    }
                    if let Some(replica) = &route {
                        if !failed_replicas.contains(replica) {
                            failed_replicas.push(replica.clone());
                        }
                    }
                    if attempt >= policy.max_attempts {
                        return Err(e);
                    }
                    // Jitter comes from a stream keyed by the arguments
                    // and attempt number — seeded model randomness, never
                    // wall time, so identically-seeded runs back off
                    // identically.
                    let roll = if policy.backoff_jitter_frac > 0.0 {
                        wsmed_netsim::DetRng::keyed(
                            self.sim.seed,
                            &format!("backoff/{}", owf.name),
                            fnv1a(&crate::wire::encode_value_slice(args)) ^ attempt as u64,
                        )
                        .next_f64()
                    } else {
                        0.5
                    };
                    self.sim.sleep_model(policy.backoff_for(attempt, roll));
                    attempt += 1;
                    self.res_stats.note_retry(&provider, &breaker_key);
                    if self.tracing() {
                        self.trace_here(TraceEventKind::RetryAttempt {
                            op: owf.name.clone(),
                            attempt: attempt as u32,
                        });
                    }
                }
                other => return other,
            }
        }
    }

    /// One attempt of a resilient call: the deadline-bounded transport
    /// call, plus the hedged backup when configured. The hedge sleeps the
    /// configured model-time delay, then — if the primary is still in
    /// flight — issues the same call and the first success wins. The
    /// loser's value is dropped here, below the caching layer, so a
    /// hedge can never insert a value the winner did not produce.
    /// When the router picked a `replica`, both the primary and the hedge
    /// pin their transport calls: the hedge to `hedge_replica` (a
    /// different replica, when the group has one) so the backup lands on
    /// different hardware than the call it is hedging against.
    fn call_attempt(
        &self,
        owf: &OwfDef,
        args: &[Value],
        policy: &ResiliencePolicy,
        replica: Option<&str>,
        hedge_replica: Option<&str>,
    ) -> CoreResult<Value> {
        let deadline = policy.deadline_model_secs;
        let Some(hedge) = policy.hedge else {
            return self.transport_call(owf, args, deadline, replica);
        };
        let settled = AtomicBool::new(false);
        let binding = obs::current_proc();
        // The hedge waits out its delay on a thread of its own while this
        // one makes the primary call: one blocking section for both.
        runtime::blocking(|| {
            std::thread::scope(|scope| {
                let (tx, rx) = std::sync::mpsc::channel();
                {
                    let settled = &settled;
                    let binding = &binding;
                    scope.spawn(move || {
                        self.sim.sleep_model(hedge.delay_model_secs);
                        if settled.load(Ordering::Acquire) {
                            // Primary already finished; no backup call.
                            let _ = tx.send(None);
                            return;
                        }
                        // Attribute the hedge's trace events (and its WsCall)
                        // to the same process-tree node as the primary.
                        obs::set_current_proc(binding.0, binding.1, Arc::clone(&binding.2));
                        self.res_stats.note_hedge_launched();
                        if hedge_replica.is_some() {
                            self.router_stats.note_hedge_reroute();
                        }
                        if self.tracing() {
                            self.trace_here(TraceEventKind::HedgeLaunch {
                                op: owf.operation.clone(),
                            });
                        }
                        let _ = tx.send(Some(self.transport_call(
                            owf,
                            args,
                            deadline,
                            hedge_replica.or(replica),
                        )));
                    });
                }
                let primary = self.transport_call(owf, args, deadline, replica);
                settled.store(true, Ordering::Release);
                if primary.is_ok() {
                    // The hedge either never launches (it sees `settled`) or
                    // loses; either way its value is discarded un-cached.
                    return primary;
                }
                // Primary failed: wait for the hedge's verdict. The hedge
                // call is bounded by the same deadline, so this cannot wait
                // longer than one call.
                match rx.recv() {
                    Ok(Some(Ok(value))) => {
                        self.res_stats.note_hedge_win();
                        if self.tracing() {
                            self.trace_here(TraceEventKind::HedgeWin {
                                op: owf.operation.clone(),
                            });
                        }
                        Ok(value)
                    }
                    // Hedge skipped, failed too, or died: report the
                    // primary's error.
                    _ => primary,
                }
            })
        })
    }

    pub(crate) fn next_process_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Records bytes shipped between query processes (plan functions,
    /// parameter tuples, result tuples).
    pub(crate) fn record_shipped(&self, bytes: usize) {
        self.shipped_bytes
            .fetch_add(bytes as u64, Ordering::Relaxed);
    }

    /// Called by the coordinator's parallel operator when the first result
    /// tuple of the run arrives (streaming latency, §III.A).
    pub(crate) fn record_first_result(&self) {
        if self.first_result_nanos.load(Ordering::Relaxed) == 0 {
            let nanos = self.started.elapsed().as_nanos() as u64;
            let _ = self.first_result_nanos.compare_exchange(
                0,
                nanos.max(1),
                Ordering::Relaxed,
                Ordering::Relaxed,
            );
        }
    }

    /// Executes the run's query plan as the coordinator process `q0` and
    /// collects the results plus an execution report. A context executes
    /// one plan: its tree, trace and counters describe exactly that run.
    pub fn run_plan(self: &Arc<Self>, plan: &QueryPlan) -> CoreResult<ExecutionReport> {
        let tree = &self.tree;
        tree.register(0, None, 0, "coordinator");
        // Shared infrastructure joins this run's busy period: counters
        // (and per-run entries / breaker states) reset only on the
        // idle→busy edge, so overlapping queries share live state while a
        // sequential caller still sees fresh counters every run. Each
        // `begin_run` is paired with an `end_run` below.
        let cache = self.call_cache();
        if let Some(cache) = cache {
            cache.begin_run();
        }
        let pool = self.process_pool();
        if let Some(pool) = &pool {
            pool.begin_run();
        }
        let breakers = &self.cfg.breakers;
        breakers.begin_run();
        obs::set_current_proc(0, 0, Arc::from(""));

        let coordinator = self.coordinate(plan, pool.is_some());
        let (result, snapshot) = runtime::block_on_watched(coordinator, WEDGE_PATIENCE)
            .unwrap_or_else(|| {
                let wedged = CoreError::ProcessFailure(format!(
                    "the process tree made no progress for {WEDGE_PATIENCE:?}"
                ));
                (Err(wedged), tree.snapshot())
            });
        // Leave the shared infrastructure's busy period (mirror of the
        // begin_run calls above), on success and failure alike.
        if let Some(cache) = cache {
            cache.end_run();
        }
        if let Some(pool) = &pool {
            pool.end_run();
        }
        breakers.end_run();

        let wall = self.started.elapsed();
        let rows = result?;

        let model_seconds = if self.sim.time_scale > 0.0 {
            Some(wall.as_secs_f64() / self.sim.time_scale)
        } else {
            None
        };
        Ok(ExecutionReport {
            rows,
            column_names: plan.column_names.clone(),
            wall,
            model_seconds,
            ws_calls: self.ws_calls.load(Ordering::Relaxed),
            ws_bytes: self.ws_bytes.load(Ordering::Relaxed),
            shipped_bytes: self.shipped_bytes.load(Ordering::Relaxed),
            messages: snapshot.total_messages(),
            cache: cache.map_or_else(CacheStats::default, |c| {
                self.cache_scope.snapshot(c.stats().entries)
            }),
            pool: pool.map_or_else(PoolStats::default, |_| self.pool_scope.snapshot()),
            resilience: self.res_stats.snapshot(),
            router: self.router_stats.snapshot(),
            pruned_params: self.pruned_params.load(Ordering::Relaxed),
            first_row_wall: match self.first_result_nanos.load(Ordering::Relaxed) {
                0 => None,
                nanos => Some(std::time::Duration::from_nanos(nanos)),
            },
            tree: snapshot,
            trace: self.trace.clone(),
        })
    }

    /// The coordinator q0: compiles the plan (spawning the first tree
    /// level), evaluates it, takes the tree's final snapshot and tears the
    /// tree down again, parking into the pool what it keeps. When this
    /// returns, every process the run spawned has ended or is parked.
    async fn coordinate(
        self: &Arc<Self>,
        plan: &QueryPlan,
        pooled: bool,
    ) -> (CoreResult<Vec<Tuple>>, TreeSnapshot) {
        let env = ProcEnv { id: 0, level: 0 };
        self.trace_here(TraceEventKind::RunStart);
        let (result, root) = match compile(self, &env, &plan.root).await {
            Ok(mut root) => (eval(&mut root, self, &Tuple::empty()).await, Some(root)),
            Err(e) => (Err(e), None),
        };
        // The final shape: a process still installing has not spawned its
        // own children yet, so the snapshot waits for every install.
        self.spawn_counts.installs_settled().await;
        let snapshot = self.tree.snapshot();
        self.trace_here(TraceEventKind::RunEnd {
            ok: result.is_ok(),
            rows: result.as_ref().map_or(0, |r| r.len() as u64),
        });
        if let Some(mut root) = root {
            if result.is_ok() && pooled {
                // Park idle children warm instead of ending them; whatever
                // cannot be parked (busy, failed, over bounds) ends below.
                root.park(self).await;
            }
            root.shutdown().await;
        }
        (result, snapshot)
    }
}

/// Transient errors the retry loop may re-attempt: injected service
/// faults and deadline timeouts. Bad requests and unknown operations are
/// deterministic failures retrying cannot fix.
fn is_transient(e: &CoreError) -> bool {
    matches!(
        e,
        CoreError::Net(wsmed_netsim::NetError::ServiceFault { .. })
            | CoreError::Net(wsmed_netsim::NetError::Timeout { .. })
            | CoreError::DeadlineExceeded { .. }
    )
}

/// Errors that drop a parameter tuple under [`FailureMode::Partial`]
/// instead of aborting the query: a transient failure that exhausted its
/// retries, a breaker rejection, or an admission shed.
pub(crate) fn is_skippable(e: &CoreError) -> bool {
    is_transient(e)
        || matches!(
            e,
            CoreError::CircuitOpen { .. } | CoreError::Admission { .. }
        )
}

/// FNV-1a over a byte slice (backoff-jitter stream key).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

impl std::fmt::Debug for ExecContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExecContext")
            .field("owfs", &self.owfs.names())
            .field("time_scale", &self.sim.time_scale)
            .finish()
    }
}

/// A compiled plan fragment. Every plan operator but a leaf has exactly
/// one input, so a fragment is a pipeline: a leaf row (the unit tuple, or
/// the parameter tuple of a plan function) and the stages applied to it in
/// turn, each to the whole row bag of the one below. `FF_APPLYP`/`AFF_APPLYP`
/// stages own live child processes that persist across calls of the
/// enclosing plan function — the process tree is built once, then parameter
/// tuples stream through it.
pub(crate) struct Pipeline {
    /// The leaf is the parameter tuple rather than the unit tuple.
    from_param: bool,
    /// Root first, as the plan nests them; evaluation runs them backwards.
    stages: Vec<Stage>,
}

enum Stage {
    ApplyOwf {
        owf: OwfDef,
        args: Vec<ArgExpr>,
    },
    ApplyFunction {
        function: String,
        args: Vec<ArgExpr>,
    },
    Extend {
        exprs: Vec<ArgExpr>,
    },
    Project {
        columns: Vec<usize>,
    },
    Sort {
        keys: Vec<(usize, bool)>,
    },
    Distinct,
    Limit {
        count: usize,
    },
    Count,
    GroupBy {
        key_count: usize,
        aggs: Vec<(wsmed_sql::AggFunc, Option<usize>)>,
    },
    Parallel(ParallelApply),
}

impl Pipeline {
    fn parallel_ops(&mut self) -> impl Iterator<Item = &mut ParallelApply> {
        self.stages.iter_mut().filter_map(|stage| match stage {
            Stage::Parallel(op) => Some(op),
            _ => None,
        })
    }

    /// Parks every parallel operator's idle children into the warm process
    /// pool (end of a successful run).
    async fn park(&mut self, ctx: &Arc<ExecContext>) {
        for op in self.parallel_ops() {
            op.park_children(ctx).await;
        }
    }

    /// Clears per-run state (park-time `Reset` inside a warm child:
    /// adaptation counters here, forwarded `Reset` messages to the
    /// subtree's own children).
    pub(crate) async fn reset(&mut self) {
        for op in self.parallel_ops() {
            op.reset_children().await;
        }
    }

    /// Re-registers every live process of a warm subtree into the new
    /// run's tree registry (attach-time walk inside a warm child, forwarded
    /// recursively). `env` is the hosting process's identity in the *new*
    /// run — a warm tree may be re-homed into a different execution context
    /// with freshly allocated process ids.
    pub(crate) async fn reattach(&mut self, ctx: &Arc<ExecContext>, env: &ProcEnv) {
        for op in self.parallel_ops() {
            op.reattach_children(ctx, env).await;
        }
    }

    /// Ends every child process of the fragment and waits for their
    /// subtrees to finish.
    pub(crate) async fn shutdown(&mut self) {
        for op in self.parallel_ops() {
            op.shutdown().await;
        }
    }

    /// Appends the stages of `op`'s chain down to its leaf, spawning the
    /// child processes of any parallel operators (plan functions are
    /// shipped at compile time, before execution — §III).
    async fn build(
        &mut self,
        ctx: &Arc<ExecContext>,
        env: &ProcEnv,
        mut op: &PlanOp,
    ) -> CoreResult<()> {
        loop {
            let (stage, input) = match op {
                PlanOp::Unit => return Ok(()),
                PlanOp::Param { .. } => {
                    self.from_param = true;
                    return Ok(());
                }
                PlanOp::ApplyOwf {
                    owf,
                    args,
                    output_arity,
                    input,
                } => {
                    let def = ctx.owfs.get(owf)?.clone();
                    if def.columns.len() != *output_arity {
                        return Err(CoreError::InvalidPlan(format!(
                            "OWF {owf} output arity mismatch: plan says {output_arity}, OWF has {}",
                            def.columns.len()
                        )));
                    }
                    let stage = Stage::ApplyOwf {
                        owf: def,
                        args: args.clone(),
                    };
                    (stage, input)
                }
                PlanOp::ApplyFunction {
                    function,
                    args,
                    output_arity,
                    input,
                } => {
                    let sig = builtin_functions().signature(function)?;
                    if sig.outputs.len() != *output_arity {
                        return Err(CoreError::InvalidPlan(format!(
                            "function {function} output arity mismatch: plan says \
                             {output_arity}, signature has {}",
                            sig.outputs.len()
                        )));
                    }
                    let stage = Stage::ApplyFunction {
                        function: function.clone(),
                        args: args.clone(),
                    };
                    (stage, input)
                }
                PlanOp::Extend { exprs, input } => (
                    Stage::Extend {
                        exprs: exprs.clone(),
                    },
                    input,
                ),
                PlanOp::Project { columns, input } => (
                    Stage::Project {
                        columns: columns.clone(),
                    },
                    input,
                ),
                PlanOp::Sort { keys, input } => (Stage::Sort { keys: keys.clone() }, input),
                PlanOp::Distinct { input } => (Stage::Distinct, input),
                PlanOp::Limit { count, input } => (Stage::Limit { count: *count }, input),
                PlanOp::Count { input } => (Stage::Count, input),
                PlanOp::GroupBy {
                    key_count,
                    aggs,
                    input,
                } => (
                    Stage::GroupBy {
                        key_count: *key_count,
                        aggs: aggs.clone(),
                    },
                    input,
                ),
                PlanOp::FfApply { pf, fanout, input } => {
                    if *fanout == 0 {
                        return Err(CoreError::InvalidPlan(format!(
                            "FF_APPLYP of {} has fanout 0 (merge the section instead)",
                            pf.name
                        )));
                    }
                    let op = ParallelApply::fixed(ctx, env, pf, *fanout).await;
                    (Stage::Parallel(op), input)
                }
                PlanOp::AffApply { pf, config, input } => {
                    let op = ParallelApply::adaptive(ctx, env, pf, config.clone()).await;
                    (Stage::Parallel(op), input)
                }
            };
            self.stages.push(stage);
            op = input;
        }
    }
}

/// Compiles a plan fragment, spawning the child processes of its parallel
/// operators. On failure, the processes already spawned are ended first.
pub(crate) async fn compile(
    ctx: &Arc<ExecContext>,
    env: &ProcEnv,
    op: &PlanOp,
) -> CoreResult<Pipeline> {
    let mut pipeline = Pipeline {
        from_param: false,
        stages: Vec::new(),
    };
    match pipeline.build(ctx, env, op).await {
        Ok(()) => Ok(pipeline),
        Err(e) => {
            pipeline.shutdown().await;
            Err(e)
        }
    }
}

/// Evaluates a compiled fragment for one parameter tuple, producing the
/// full (materialized) result bag. Within a query process evaluation is
/// sequential; parallelism happens across processes.
pub(crate) async fn eval(
    pipeline: &mut Pipeline,
    ctx: &Arc<ExecContext>,
    param: &Tuple,
) -> CoreResult<Vec<Tuple>> {
    let leaf = if pipeline.from_param {
        param.clone()
    } else {
        Tuple::empty()
    };
    let mut rows = vec![leaf];
    for stage in pipeline.stages.iter_mut().rev() {
        rows = match stage {
            Stage::ApplyOwf { owf, args } => {
                let rows_in = rows.len() as u64;
                let partial = ctx.failure_mode() == FailureMode::Partial;
                let mut out = Vec::new();
                for row in rows {
                    let values = resolve_args(args, &row);
                    let response = match ctx.call_with_retry(owf, &values) {
                        Ok(value) => value,
                        Err(e) if partial && is_skippable(&e) => {
                            // Degrade instead of aborting: this input row
                            // is dropped from the result and counted.
                            ctx.note_param_skip(&owf.name);
                            continue;
                        }
                        Err(e) => return Err(e),
                    };
                    owf.flatten_onto(row.values(), &response, &mut out);
                }
                if let Some(obs) = ctx.planner_obs() {
                    obs.observe_op(&owf.name, rows_in, out.len() as u64);
                }
                out
            }
            Stage::ApplyFunction { function, args } => {
                let rows_in = rows.len() as u64;
                let mut out = Vec::new();
                for row in rows {
                    let values = resolve_args(args, &row);
                    for produced in builtin_functions().apply(function, &values)? {
                        out.push(row.concat(&produced));
                    }
                }
                if let Some(obs) = ctx.planner_obs() {
                    obs.observe_op(function, rows_in, out.len() as u64);
                }
                out
            }
            Stage::Extend { exprs } => rows
                .into_iter()
                .map(|row| {
                    let extra = Tuple::new(resolve_args(exprs, &row));
                    row.concat(&extra)
                })
                .collect(),
            Stage::Project { columns } => {
                rows.into_iter().map(|row| row.project(columns)).collect()
            }
            Stage::Sort { keys } => {
                rows.sort_by(|a, b| {
                    for &(col, desc) in keys.iter() {
                        let ord = a.get(col).total_cmp(b.get(col));
                        if ord != std::cmp::Ordering::Equal {
                            return if desc { ord.reverse() } else { ord };
                        }
                    }
                    std::cmp::Ordering::Equal
                });
                rows
            }
            Stage::Distinct => {
                rows.sort_by(|a, b| a.total_cmp(b));
                rows.dedup_by(|a, b| a.total_cmp(b) == std::cmp::Ordering::Equal);
                rows
            }
            Stage::Limit { count } => {
                rows.truncate(*count);
                rows
            }
            Stage::Count => vec![Tuple::new(vec![Value::Int(rows.len() as i64)])],
            Stage::GroupBy { key_count, aggs } => group_rows(*key_count, aggs, rows)?,
            Stage::Parallel(op) => op.run(ctx, rows).await?,
        };
    }
    Ok(rows)
}

/// Grouped aggregation: sorts by the leading `key_count` columns, then
/// emits one `keys ⊕ aggregate values` row per group. With no keys this is
/// a global aggregate: exactly one row, even over empty input.
pub(crate) fn group_rows(
    key_count: usize,
    aggs: &[(wsmed_sql::AggFunc, Option<usize>)],
    mut rows: Vec<Tuple>,
) -> CoreResult<Vec<Tuple>> {
    let key_cmp = |a: &Tuple, b: &Tuple| {
        for col in 0..key_count {
            let ord = a.get(col).total_cmp(b.get(col));
            if ord != std::cmp::Ordering::Equal {
                return ord;
            }
        }
        std::cmp::Ordering::Equal
    };
    rows.sort_by(key_cmp);

    let mut out = Vec::new();
    let mut start = 0;
    while start < rows.len() || (key_count == 0 && out.is_empty()) {
        let end = if start >= rows.len() {
            start // empty global group
        } else {
            let mut end = start + 1;
            while end < rows.len() && key_cmp(&rows[start], &rows[end]) == std::cmp::Ordering::Equal
            {
                end += 1;
            }
            end
        };
        let group = &rows[start..end];
        let mut values: Vec<Value> = if group.is_empty() {
            Vec::new()
        } else {
            (0..key_count).map(|c| group[0].get(c).clone()).collect()
        };
        for (func, arg) in aggs {
            values.push(aggregate(*func, *arg, group)?);
        }
        out.push(Tuple::new(values));
        if end == start {
            break; // the empty global group emitted once
        }
        start = end;
    }
    Ok(out)
}

fn aggregate(func: wsmed_sql::AggFunc, arg: Option<usize>, group: &[Tuple]) -> CoreResult<Value> {
    use wsmed_sql::AggFunc;
    let column = |row: &Tuple| -> Value { arg.map(|c| row.get(c).clone()).unwrap_or(Value::Null) };
    Ok(match func {
        AggFunc::Count => Value::Int(group.len() as i64),
        AggFunc::Sum => {
            if group.iter().all(|r| matches!(column(r), Value::Int(_))) {
                Value::Int(
                    group
                        .iter()
                        .map(|r| column(r).as_int())
                        .sum::<Result<i64, _>>()?,
                )
            } else {
                let mut sum = 0.0;
                for row in group {
                    sum += column(row).as_real()?;
                }
                Value::Real(sum)
            }
        }
        AggFunc::Avg => {
            if group.is_empty() {
                Value::Null
            } else {
                let mut sum = 0.0;
                for row in group {
                    sum += column(row).as_real()?;
                }
                Value::Real(sum / group.len() as f64)
            }
        }
        AggFunc::Min => group
            .iter()
            .map(&column)
            .min_by(|a, b| a.total_cmp(b))
            .unwrap_or(Value::Null),
        AggFunc::Max => group
            .iter()
            .map(&column)
            .max_by(|a, b| a.total_cmp(b))
            .unwrap_or(Value::Null),
    })
}

fn resolve_args(args: &[ArgExpr], row: &Tuple) -> Vec<Value> {
    args.iter()
        .map(|a| match a {
            ArgExpr::Col(i) => row.get(*i).clone(),
            ArgExpr::Const(v) => v.clone(),
        })
        .collect()
}

#[cfg(test)]
mod tests;
