//! Resilient call policies: deadlines, retries with backoff, per-provider
//! circuit breakers, hedged requests, and partial-result degradation.
//!
//! The paper's mediator assumes cooperative services: a call either
//! returns or the whole query aborts. This module adds the client-side
//! machinery to keep a query useful when providers hang, brown out, or go
//! down (the expanded [`wsmed_netsim::FaultSpec`] chaos model):
//!
//! * **Deadline** — every call is bounded by a per-call model-time
//!   deadline; a hung call charges exactly the deadline and fails with
//!   [`crate::CoreError::DeadlineExceeded`] instead of stalling the run.
//! * **Retry with backoff** — transient failures (service faults,
//!   deadline timeouts) are retried with exponential backoff and
//!   deterministic seeded jitter (never wall-clock randomness).
//! * **Circuit breaker** — consecutive failures against one provider trip
//!   a breaker from closed to open; calls are then rejected without
//!   reaching the wire until a model-time cooldown elapses, after which a
//!   bounded number of half-open probes decide between closing and
//!   re-opening. All transitions are traced and counted.
//! * **Hedged requests** — optionally, a backup call launches after a
//!   model-time delay and the first success wins. The losing call's value
//!   is dropped before the caching layer, so hedges never poison the
//!   single-flight call cache.
//! * **Partial failure mode** — at the query level,
//!   [`FailureMode::Partial`] drops parameter tuples whose calls fail
//!   terminally instead of aborting the run, with exact per-OWF skip
//!   accounting on [`ResilienceStats`].
//!
//! Everything here is strictly opt-in: the default policy (one attempt,
//! no deadline, no breaker, no hedge, [`FailureMode::Abort`]) leaves the
//! paper-reproduction call path byte-identical to the non-resilient code.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::error::{CoreError, CoreResult};

/// What the mediator does when one parameter tuple's web-service call
/// fails terminally (retries exhausted, deadline exceeded, breaker open).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FailureMode {
    /// Abort the whole query with the error (the paper's behaviour).
    #[default]
    Abort,
    /// Drop the failing parameter tuple from the result and keep going;
    /// every drop is counted in [`ResilienceStats::skipped_params`].
    Partial,
}

/// Circuit-breaker configuration for one provider (all providers share
/// the same policy; state is tracked per provider).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BreakerPolicy {
    /// Consecutive failures that trip the breaker closed → open.
    pub failure_threshold: u32,
    /// Model seconds an open breaker rejects calls before going
    /// half-open. Measured on the transport's model clock
    /// ([`crate::transport::WsTransport::model_now`]), never wall time.
    pub cooldown_model_secs: f64,
    /// Concurrent probe calls admitted while half-open; the first
    /// success closes the breaker, the first failure re-opens it.
    pub half_open_probes: u32,
    /// Admit a half-open probe after this many consecutive rejections
    /// even when the cooldown has not elapsed (`0` disables). The
    /// cooldown is measured on the transport's model clock, which only
    /// advances while providers serve calls — when the open breaker is
    /// the sole reason no calls are served, the clock freezes and the
    /// cooldown would never elapse. This count-based escape keeps the
    /// breaker live under a frozen clock, deterministically.
    pub probe_after_rejections: u32,
}

impl Default for BreakerPolicy {
    fn default() -> Self {
        BreakerPolicy {
            failure_threshold: 5,
            cooldown_model_secs: 30.0,
            half_open_probes: 1,
            probe_after_rejections: 64,
        }
    }
}

/// Hedged-request configuration: launch a backup call after a model-time
/// delay and take the first success.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HedgePolicy {
    /// Model seconds the primary call may run before the hedge launches.
    pub delay_model_secs: f64,
}

impl Default for HedgePolicy {
    fn default() -> Self {
        HedgePolicy {
            delay_model_secs: 2.0,
        }
    }
}

/// The full resilient-call policy applied by the execution context. The
/// default is the non-resilient paper behaviour: one attempt, no
/// deadline, no breaker, no hedge, abort on failure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResiliencePolicy {
    /// Total attempts per call (1 = no retries).
    pub max_attempts: usize,
    /// Base model-time backoff before the second attempt.
    pub backoff_model_secs: f64,
    /// Multiplier applied to the backoff after each failed attempt
    /// (1.0 = fixed backoff).
    pub backoff_multiplier: f64,
    /// Jitter fraction `j`: each backoff is scaled by a deterministic
    /// seeded factor drawn uniformly from `[1 - j, 1 + j]`.
    pub backoff_jitter_frac: f64,
    /// Per-call model-time deadline (`None` = unbounded, the default).
    pub deadline_model_secs: Option<f64>,
    /// Per-provider circuit breaker (`None` = disabled).
    pub breaker: Option<BreakerPolicy>,
    /// Hedged requests (`None` = disabled).
    pub hedge: Option<HedgePolicy>,
    /// Query-level degradation semantics.
    pub failure_mode: FailureMode,
}

impl Default for ResiliencePolicy {
    fn default() -> Self {
        ResiliencePolicy {
            max_attempts: 1,
            backoff_model_secs: 0.5,
            backoff_multiplier: 1.0,
            backoff_jitter_frac: 0.0,
            deadline_model_secs: None,
            breaker: None,
            hedge: None,
            failure_mode: FailureMode::Abort,
        }
    }
}

impl ResiliencePolicy {
    /// The backoff before attempt `attempt + 1` (so `attempt` is the
    /// 1-based attempt that just failed), with deterministic jitter from
    /// the seeded roll `jitter_roll ∈ [0, 1)`.
    pub(crate) fn backoff_for(&self, attempt: usize, jitter_roll: f64) -> f64 {
        let exp = attempt.saturating_sub(1) as i32;
        let base = self.backoff_model_secs * self.backoff_multiplier.powi(exp);
        let jitter = 1.0 + self.backoff_jitter_frac * (2.0 * jitter_roll - 1.0);
        (base * jitter).max(0.0)
    }

    /// True when the policy is exactly the non-resilient default for the
    /// call path (attempts aside): no deadline, breaker, or hedge.
    pub fn is_plain(&self) -> bool {
        self.deadline_model_secs.is_none() && self.breaker.is_none() && self.hedge.is_none()
    }
}

/// Per-provider slice of [`ResilienceStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProviderResilience {
    /// Retry attempts issued against this provider.
    pub retries: u64,
    /// Times this provider's breaker tripped open (including re-opens
    /// from half-open).
    pub breaker_opens: u64,
    /// Calls rejected by this provider's open breaker.
    pub breaker_rejections: u64,
}

/// Counters describing the resilience machinery's activity during one
/// run, surfaced on [`crate::ExecutionReport::resilience`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ResilienceStats {
    /// Retry attempts issued (beyond each call's first attempt).
    pub retries: u64,
    /// Calls that charged their full deadline and timed out.
    pub deadline_exceeded: u64,
    /// Hedged backup calls launched.
    pub hedges_launched: u64,
    /// Hedged calls whose backup's success was taken.
    pub hedge_wins: u64,
    /// Breaker transitions closed/half-open → open.
    pub breaker_opens: u64,
    /// Breaker transitions open → half-open (cooldown elapsed).
    pub breaker_half_opens: u64,
    /// Breaker transitions half-open → closed (probe succeeded).
    pub breaker_closes: u64,
    /// Calls rejected by an open breaker without reaching the wire.
    pub breaker_rejections: u64,
    /// Parameter tuples dropped under [`FailureMode::Partial`].
    pub skipped_params: u64,
    /// Calls shed by admission control ([`QuotaPolicy`] budgets) before
    /// reaching the wire.
    pub admission_rejections: u64,
    /// Per-provider breakdown, sorted by provider name. For replicated
    /// providers this is the *group-level rollup* (each entry sums its
    /// replicas), so group dashboards and the chaos ablation keep their
    /// historical shape; a non-replicated provider is its own group.
    pub per_provider: Vec<(String, ProviderResilience)>,
    /// Per-replica breakdown keyed `(group, replica)`, sorted by key.
    /// For a non-replicated provider the replica name equals the group
    /// name, so this is a superset view of `per_provider`.
    pub per_replica: Vec<((String, String), ProviderResilience)>,
    /// Skipped-parameter counts per OWF name, sorted by name.
    pub skipped_by_owf: Vec<(String, u64)>,
}

impl ResilienceStats {
    /// True when no resilience machinery fired at all this run.
    pub fn is_quiet(&self) -> bool {
        *self == ResilienceStats::default()
    }
}

/// Run-scoped collector behind [`ResilienceStats`]. Cheap when idle: the
/// maps are only locked on actual resilience events.
#[derive(Debug, Default)]
pub(crate) struct ResilienceCollector {
    retries: AtomicU64,
    deadline_exceeded: AtomicU64,
    hedges_launched: AtomicU64,
    hedge_wins: AtomicU64,
    breaker_opens: AtomicU64,
    breaker_half_opens: AtomicU64,
    breaker_closes: AtomicU64,
    breaker_rejections: AtomicU64,
    skipped_params: AtomicU64,
    admission_rejections: AtomicU64,
    per_replica: Mutex<BTreeMap<(String, String), ProviderResilience>>,
    skipped_by_owf: Mutex<BTreeMap<String, u64>>,
}

impl ResilienceCollector {
    pub(crate) fn note_retry(&self, group: &str, replica: &str) {
        self.retries.fetch_add(1, Ordering::Relaxed);
        self.per_replica
            .lock()
            .entry((group.to_owned(), replica.to_owned()))
            .or_default()
            .retries += 1;
    }

    pub(crate) fn note_deadline_exceeded(&self) {
        self.deadline_exceeded.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_hedge_launched(&self) {
        self.hedges_launched.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_hedge_win(&self) {
        self.hedge_wins.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_breaker_open(&self, group: &str, replica: &str) {
        self.breaker_opens.fetch_add(1, Ordering::Relaxed);
        self.per_replica
            .lock()
            .entry((group.to_owned(), replica.to_owned()))
            .or_default()
            .breaker_opens += 1;
    }

    pub(crate) fn note_breaker_half_open(&self) {
        self.breaker_half_opens.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_breaker_close(&self) {
        self.breaker_closes.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_admission_rejection(&self) {
        self.admission_rejections.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_breaker_rejection(&self, group: &str, replica: &str) {
        self.breaker_rejections.fetch_add(1, Ordering::Relaxed);
        self.per_replica
            .lock()
            .entry((group.to_owned(), replica.to_owned()))
            .or_default()
            .breaker_rejections += 1;
    }

    /// Counts `n` skipped parameter tuples against one OWF (at the
    /// coordinator, or when a child's end-of-call skips are committed).
    pub(crate) fn note_skips(&self, owf: &str, n: u64) {
        if n == 0 {
            return;
        }
        self.skipped_params.fetch_add(n, Ordering::Relaxed);
        *self
            .skipped_by_owf
            .lock()
            .entry(owf.to_owned())
            .or_default() += n;
    }

    pub(crate) fn snapshot(&self) -> ResilienceStats {
        ResilienceStats {
            retries: self.retries.load(Ordering::Relaxed),
            deadline_exceeded: self.deadline_exceeded.load(Ordering::Relaxed),
            hedges_launched: self.hedges_launched.load(Ordering::Relaxed),
            hedge_wins: self.hedge_wins.load(Ordering::Relaxed),
            breaker_opens: self.breaker_opens.load(Ordering::Relaxed),
            breaker_half_opens: self.breaker_half_opens.load(Ordering::Relaxed),
            breaker_closes: self.breaker_closes.load(Ordering::Relaxed),
            breaker_rejections: self.breaker_rejections.load(Ordering::Relaxed),
            skipped_params: self.skipped_params.load(Ordering::Relaxed),
            admission_rejections: self.admission_rejections.load(Ordering::Relaxed),
            per_provider: {
                let map = self.per_replica.lock();
                let mut groups: BTreeMap<String, ProviderResilience> = BTreeMap::new();
                for ((group, _), v) in map.iter() {
                    let g = groups.entry(group.clone()).or_default();
                    g.retries += v.retries;
                    g.breaker_opens += v.breaker_opens;
                    g.breaker_rejections += v.breaker_rejections;
                }
                groups.into_iter().collect()
            },
            per_replica: self
                .per_replica
                .lock()
                .iter()
                .map(|(k, v)| (k.clone(), *v))
                .collect(),
            skipped_by_owf: self
                .skipped_by_owf
                .lock()
                .iter()
                .map(|(k, v)| (k.clone(), *v))
                .collect(),
        }
    }
}

/// The phase of one provider's breaker.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Phase {
    Closed,
    Open { since_model: f64, rejections: u32 },
    HalfOpen { probes_in_flight: u32 },
}

#[derive(Debug)]
struct BreakerState {
    consecutive_failures: u32,
    phase: Phase,
}

impl Default for BreakerState {
    fn default() -> Self {
        BreakerState {
            consecutive_failures: 0,
            phase: Phase::Closed,
        }
    }
}

/// Whether a call may proceed, and what the admission decided.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Admission {
    /// The call may be issued (closed breaker, or a half-open probe).
    pub allowed: bool,
    /// Admission itself moved the breaker open → half-open (trace it).
    pub went_half_open: bool,
}

/// A state transition caused by a call outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Transition {
    /// Closed (or half-open) tripped to open.
    Opened,
    /// A half-open probe succeeded; the breaker closed.
    Closed,
}

/// Lifetime circuit-breaker transition totals across every query that
/// shared one breaker table. These are never reset by runs, so summing
/// per-query [`ResilienceStats`] deltas against them is meaningful under
/// concurrent executions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BreakerTotals {
    /// Transitions closed/half-open → open.
    pub opens: u64,
    /// Transitions open → half-open (cooldown or rejection escape).
    pub half_opens: u64,
    /// Transitions half-open → closed (probe succeeded).
    pub closes: u64,
    /// Calls rejected by an open breaker without reaching the wire.
    pub rejections: u64,
}

/// Per-provider breaker states, shared by every query running against
/// one mediator. State is cleared at the start of each busy period (the
/// first run after the table goes idle), so sequential runs see the
/// paper-era "fresh breakers per run" semantics while overlapping runs
/// share live state.
#[derive(Debug, Default)]
pub(crate) struct Breakers {
    states: Mutex<HashMap<String, BreakerState>>,
    active_runs: AtomicUsize,
    opens: AtomicU64,
    half_opens: AtomicU64,
    closes: AtomicU64,
    rejections: AtomicU64,
}

impl Breakers {
    pub(crate) fn reset(&self) {
        self.states.lock().clear();
    }

    /// Marks one run as using this breaker table. The first run of a
    /// busy period (idle → busy edge) clears per-provider state; runs
    /// that overlap an already-active run share it.
    pub(crate) fn begin_run(&self) {
        if self.active_runs.fetch_add(1, Ordering::AcqRel) == 0 {
            self.reset();
        }
    }

    /// Marks one run as finished with this breaker table.
    pub(crate) fn end_run(&self) {
        self.active_runs.fetch_sub(1, Ordering::AcqRel);
    }

    /// Lifetime transition totals (never reset by runs).
    pub(crate) fn totals(&self) -> BreakerTotals {
        BreakerTotals {
            opens: self.opens.load(Ordering::Relaxed),
            half_opens: self.half_opens.load(Ordering::Relaxed),
            closes: self.closes.load(Ordering::Relaxed),
            rejections: self.rejections.load(Ordering::Relaxed),
        }
    }

    /// Decides whether a call against `provider` may proceed at model
    /// time `now`.
    pub(crate) fn admit(&self, provider: &str, policy: &BreakerPolicy, now: f64) -> Admission {
        let mut states = self.states.lock();
        let state = states.entry(provider.to_owned()).or_default();
        match state.phase {
            Phase::Closed => Admission {
                allowed: true,
                went_half_open: false,
            },
            Phase::Open {
                since_model,
                ref mut rejections,
            } => {
                let cooled = now - since_model >= policy.cooldown_model_secs;
                let escape = policy.probe_after_rejections > 0
                    && *rejections + 1 >= policy.probe_after_rejections;
                if cooled || escape {
                    state.phase = Phase::HalfOpen {
                        probes_in_flight: 1,
                    };
                    self.half_opens.fetch_add(1, Ordering::Relaxed);
                    Admission {
                        allowed: true,
                        went_half_open: true,
                    }
                } else {
                    *rejections += 1;
                    self.rejections.fetch_add(1, Ordering::Relaxed);
                    Admission {
                        allowed: false,
                        went_half_open: false,
                    }
                }
            }
            Phase::HalfOpen {
                ref mut probes_in_flight,
            } => {
                if *probes_in_flight < policy.half_open_probes {
                    *probes_in_flight += 1;
                    Admission {
                        allowed: true,
                        went_half_open: false,
                    }
                } else {
                    self.rejections.fetch_add(1, Ordering::Relaxed);
                    Admission {
                        allowed: false,
                        went_half_open: false,
                    }
                }
            }
        }
    }

    /// Records a successful call; returns a transition when a half-open
    /// probe's success closed the breaker.
    pub(crate) fn on_success(&self, provider: &str) -> Option<Transition> {
        let mut states = self.states.lock();
        let state = states.entry(provider.to_owned()).or_default();
        state.consecutive_failures = 0;
        match state.phase {
            Phase::HalfOpen { .. } => {
                state.phase = Phase::Closed;
                self.closes.fetch_add(1, Ordering::Relaxed);
                Some(Transition::Closed)
            }
            // A call admitted before the breaker tripped may complete
            // while open; its success does not close the breaker (the
            // cooldown/probe protocol decides).
            Phase::Open { .. } | Phase::Closed => None,
        }
    }

    /// Records a transiently failed call; returns a transition when the
    /// failure tripped (or re-tripped) the breaker.
    pub(crate) fn on_failure(
        &self,
        provider: &str,
        policy: &BreakerPolicy,
        now: f64,
    ) -> Option<Transition> {
        let mut states = self.states.lock();
        let state = states.entry(provider.to_owned()).or_default();
        match state.phase {
            Phase::Closed => {
                state.consecutive_failures += 1;
                if state.consecutive_failures >= policy.failure_threshold {
                    state.phase = Phase::Open {
                        since_model: now,
                        rejections: 0,
                    };
                    self.opens.fetch_add(1, Ordering::Relaxed);
                    Some(Transition::Opened)
                } else {
                    None
                }
            }
            Phase::HalfOpen { .. } => {
                state.phase = Phase::Open {
                    since_model: now,
                    rejections: 0,
                };
                self.opens.fetch_add(1, Ordering::Relaxed);
                Some(Transition::Opened)
            }
            // Stragglers failing while already open change nothing.
            Phase::Open { .. } => None,
        }
    }
}

/// Admission-control budgets for a mediator shared by many tenants.
/// Every limit is optional; the default policy admits everything, which
/// keeps single-user runs byte-identical to the pre-quota behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct QuotaPolicy {
    /// Queries allowed in flight at once across all tenants; the
    /// `N+1`-th concurrent `execute` fails with
    /// [`CoreError::Admission`] instead of queueing.
    pub max_concurrent_queries: Option<usize>,
    /// Web-service calls allowed in flight at once across all tenants —
    /// the mediator-wide provider-capacity guard.
    pub max_inflight_calls: Option<usize>,
    /// Web-service calls one tenant may have in flight at once.
    pub per_tenant_inflight_calls: Option<usize>,
}

/// Counters describing admission-control activity, for dashboards and
/// the shell's shared-infrastructure printout. Lifetime totals.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdmissionStats {
    /// Queries currently executing.
    pub active_queries: usize,
    /// Web-service calls currently in flight (admission-counted).
    pub inflight_calls: usize,
    /// Queries rejected at admission.
    pub shed_queries: u64,
    /// Calls rejected by the global or per-tenant in-flight budget.
    pub shed_calls: u64,
}

/// Mediator-global admission control: the occupancy counters a
/// [`QuotaPolicy`] is enforced against, over concurrent queries and
/// in-flight web-service calls. Over-quota work is shed with
/// [`CoreError::Admission`] instead of queueing. The policy itself is the
/// caller's (each run carries the one it was admitted under); all
/// decisions are pure counter comparisons — deterministic given a
/// deterministic schedule of acquisitions.
#[derive(Debug, Default)]
pub struct AdmissionControl {
    active_queries: AtomicUsize,
    inflight_calls: AtomicUsize,
    tenants: Mutex<HashMap<String, Arc<AtomicUsize>>>,
    shed_queries: AtomicU64,
    shed_calls: AtomicU64,
}

/// Releases one admitted query's slot on drop.
#[derive(Debug)]
pub struct QueryGuard {
    control: Arc<AdmissionControl>,
}

impl Drop for QueryGuard {
    fn drop(&mut self) {
        self.control.active_queries.fetch_sub(1, Ordering::AcqRel);
    }
}

/// Per-query handle for charging web-service calls against the global
/// and per-tenant in-flight budgets of the quota the query runs under.
#[derive(Debug)]
pub(crate) struct CallGate {
    control: Arc<AdmissionControl>,
    quota: QuotaPolicy,
    tenant: Arc<str>,
    tenant_inflight: Arc<AtomicUsize>,
}

/// Releases one in-flight call's budget slots on drop.
#[derive(Debug)]
pub(crate) struct CallToken {
    control: Arc<AdmissionControl>,
    tenant_inflight: Arc<AtomicUsize>,
}

impl Drop for CallToken {
    fn drop(&mut self) {
        self.control.inflight_calls.fetch_sub(1, Ordering::AcqRel);
        self.tenant_inflight.fetch_sub(1, Ordering::AcqRel);
    }
}

/// Increments `counter` unless that would exceed `limit`.
fn try_acquire(counter: &AtomicUsize, limit: Option<usize>) -> bool {
    match limit {
        None => {
            counter.fetch_add(1, Ordering::AcqRel);
            true
        }
        Some(limit) => counter
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |v| {
                (v < limit).then_some(v + 1)
            })
            .is_ok(),
    }
}

impl AdmissionControl {
    /// Admits one query for `tenant`, or sheds it when `quota`'s
    /// concurrent-query budget is exhausted. The returned guard holds the
    /// slot until dropped.
    pub fn admit_query(
        self: &Arc<Self>,
        tenant: &str,
        quota: QuotaPolicy,
    ) -> CoreResult<QueryGuard> {
        let limit = quota.max_concurrent_queries;
        if !try_acquire(&self.active_queries, limit) {
            self.shed_queries.fetch_add(1, Ordering::Relaxed);
            return Err(CoreError::Admission {
                tenant: tenant.to_owned(),
                reason: format!("max_concurrent_queries ({}) exhausted", limit.unwrap_or(0)),
            });
        }
        Ok(QueryGuard {
            control: Arc::clone(self),
        })
    }

    /// The per-query call gate for `tenant` under `quota` (shares one
    /// in-flight counter across all of the tenant's queries).
    pub(crate) fn gate(self: &Arc<Self>, tenant: &str, quota: QuotaPolicy) -> CallGate {
        let tenant_inflight = Arc::clone(self.tenants.lock().entry(tenant.to_owned()).or_default());
        CallGate {
            control: Arc::clone(self),
            quota,
            tenant: Arc::from(tenant),
            tenant_inflight,
        }
    }

    /// Lifetime admission counters plus current occupancy.
    pub fn stats(&self) -> AdmissionStats {
        AdmissionStats {
            active_queries: self.active_queries.load(Ordering::Acquire),
            inflight_calls: self.inflight_calls.load(Ordering::Acquire),
            shed_queries: self.shed_queries.load(Ordering::Relaxed),
            shed_calls: self.shed_calls.load(Ordering::Relaxed),
        }
    }
}

impl CallGate {
    /// Charges one web-service call against the global and per-tenant
    /// in-flight budgets, or sheds it with [`CoreError::Admission`].
    pub(crate) fn begin_call(&self, operation: &str) -> CoreResult<CallToken> {
        if !try_acquire(&self.control.inflight_calls, self.quota.max_inflight_calls) {
            self.control.shed_calls.fetch_add(1, Ordering::Relaxed);
            return Err(CoreError::Admission {
                tenant: self.tenant.as_ref().to_owned(),
                reason: format!(
                    "max_inflight_calls ({}) exhausted calling {operation:?}",
                    self.quota.max_inflight_calls.unwrap_or(0)
                ),
            });
        }
        if !try_acquire(&self.tenant_inflight, self.quota.per_tenant_inflight_calls) {
            self.control.inflight_calls.fetch_sub(1, Ordering::AcqRel);
            self.control.shed_calls.fetch_add(1, Ordering::Relaxed);
            return Err(CoreError::Admission {
                tenant: self.tenant.as_ref().to_owned(),
                reason: format!(
                    "per_tenant_inflight_calls ({}) exhausted calling {operation:?}",
                    self.quota.per_tenant_inflight_calls.unwrap_or(0)
                ),
            });
        }
        Ok(CallToken {
            control: Arc::clone(&self.control),
            tenant_inflight: Arc::clone(&self.tenant_inflight),
        })
    }

    /// The tenant this gate charges.
    pub(crate) fn tenant(&self) -> &str {
        &self.tenant
    }
}

thread_local! {
    /// Skip sink installed by a child query process around each call it
    /// handles: `(owf name, count)` entries accumulated by `eval` under
    /// [`FailureMode::Partial`], shipped to the parent with the
    /// end-of-call message so skips commit exactly when the call's result
    /// rows do (requeue-safe accounting).
    static SKIP_SINK: RefCell<Option<Vec<(String, u64)>>> = const { RefCell::new(None) };
}

/// Installs a fresh, empty skip sink on the calling thread.
pub(crate) fn install_skip_sink() {
    SKIP_SINK.with(|s| *s.borrow_mut() = Some(Vec::new()));
}

/// Removes the sink and returns its accumulated `(owf, count)` entries.
pub(crate) fn take_skip_sink() -> Vec<(String, u64)> {
    SKIP_SINK
        .with(|s| s.borrow_mut().take())
        .unwrap_or_default()
}

/// Number of skips accumulated so far in the active sink (0 without one).
/// Used to detect skips inside one parameter's evaluation, which must
/// suppress memoization of that parameter's (incomplete) row set.
pub(crate) fn skip_sink_len() -> u64 {
    SKIP_SINK.with(|s| {
        s.borrow()
            .as_ref()
            .map_or(0, |v| v.iter().map(|(_, n)| *n).sum())
    })
}

/// Routes one skipped parameter into the active sink. Returns `false`
/// when no sink is installed (coordinator thread) — the caller then
/// counts it directly on the run's collector.
pub(crate) fn note_skip_local(owf: &str) -> bool {
    SKIP_SINK.with(|s| match s.borrow_mut().as_mut() {
        Some(v) => {
            if let Some(entry) = v.iter_mut().find(|(name, _)| name == owf) {
                entry.1 += 1;
            } else {
                v.push((owf.to_owned(), 1));
            }
            true
        }
        None => false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_policy_is_plain_single_attempt_abort() {
        let p = ResiliencePolicy::default();
        assert!(p.is_plain());
        assert_eq!(p.failure_mode, FailureMode::Abort);
        assert_eq!((p.max_attempts, p.backoff_model_secs), (1, 0.5));
    }

    #[test]
    fn backoff_grows_exponentially_with_bounded_jitter() {
        let p = ResiliencePolicy {
            backoff_model_secs: 1.0,
            backoff_multiplier: 2.0,
            backoff_jitter_frac: 0.5,
            ..Default::default()
        };
        // Roll 0.5 → jitter factor exactly 1.
        assert_eq!(p.backoff_for(1, 0.5), 1.0);
        assert_eq!(p.backoff_for(2, 0.5), 2.0);
        assert_eq!(p.backoff_for(3, 0.5), 4.0);
        // Extremes of the roll span [1-j, 1+j].
        assert!((p.backoff_for(1, 0.0) - 0.5).abs() < 1e-12);
        assert!((p.backoff_for(1, 1.0) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn breaker_trips_after_threshold_and_recovers_through_probe() {
        let breakers = Breakers::default();
        let policy = BreakerPolicy {
            failure_threshold: 3,
            cooldown_model_secs: 10.0,
            half_open_probes: 1,
            probe_after_rejections: 0,
        };
        // Two failures: still closed.
        assert_eq!(breakers.on_failure("p", &policy, 0.0), None);
        assert_eq!(breakers.on_failure("p", &policy, 1.0), None);
        assert!(breakers.admit("p", &policy, 1.0).allowed);
        // Third failure trips it.
        assert_eq!(
            breakers.on_failure("p", &policy, 2.0),
            Some(Transition::Opened)
        );
        // Rejected during cooldown.
        assert!(!breakers.admit("p", &policy, 5.0).allowed);
        // Cooldown elapsed: one probe admitted, a second rejected.
        let probe = breakers.admit("p", &policy, 12.5);
        assert!(probe.allowed && probe.went_half_open);
        assert!(!breakers.admit("p", &policy, 12.6).allowed);
        // Probe success closes the breaker.
        assert_eq!(breakers.on_success("p"), Some(Transition::Closed));
        assert!(breakers.admit("p", &policy, 12.7).allowed);
        // Other providers are independent.
        assert!(breakers.admit("q", &policy, 0.0).allowed);
    }

    #[test]
    fn half_open_probe_failure_reopens() {
        let breakers = Breakers::default();
        let policy = BreakerPolicy {
            failure_threshold: 1,
            cooldown_model_secs: 5.0,
            half_open_probes: 1,
            probe_after_rejections: 0,
        };
        assert_eq!(
            breakers.on_failure("p", &policy, 0.0),
            Some(Transition::Opened)
        );
        assert!(breakers.admit("p", &policy, 6.0).allowed);
        // The probe fails: open again, from the failure's own time.
        assert_eq!(
            breakers.on_failure("p", &policy, 6.5),
            Some(Transition::Opened)
        );
        assert!(!breakers.admit("p", &policy, 7.0).allowed);
        assert!(breakers.admit("p", &policy, 12.0).allowed);
    }

    #[test]
    fn frozen_clock_escapes_via_rejection_probes() {
        let breakers = Breakers::default();
        let policy = BreakerPolicy {
            failure_threshold: 1,
            cooldown_model_secs: 30.0,
            half_open_probes: 1,
            probe_after_rejections: 3,
        };
        assert_eq!(
            breakers.on_failure("p", &policy, 5.0),
            Some(Transition::Opened)
        );
        // The model clock freezes at 5.0: the open breaker blocks the
        // only traffic that would advance it. Two rejections, then the
        // count-based escape admits a half-open probe.
        assert!(!breakers.admit("p", &policy, 5.0).allowed);
        assert!(!breakers.admit("p", &policy, 5.0).allowed);
        let probe = breakers.admit("p", &policy, 5.0);
        assert!(probe.allowed && probe.went_half_open);
        assert_eq!(breakers.on_success("p"), Some(Transition::Closed));
        assert!(breakers.admit("p", &policy, 5.0).allowed);
    }

    #[test]
    fn success_resets_consecutive_failures() {
        let breakers = Breakers::default();
        let policy = BreakerPolicy {
            failure_threshold: 2,
            ..Default::default()
        };
        assert_eq!(breakers.on_failure("p", &policy, 0.0), None);
        assert_eq!(breakers.on_success("p"), None);
        assert_eq!(breakers.on_failure("p", &policy, 0.0), None);
        assert_eq!(breakers.on_success("p"), None);
        // Never two in a row: never trips.
        assert!(breakers.admit("p", &policy, 0.0).allowed);
    }

    #[test]
    fn collector_aggregates() {
        let c = ResilienceCollector::default();
        c.note_retry("a", "a");
        c.note_retry("a", "a#1");
        c.note_retry("b", "b");
        c.note_deadline_exceeded();
        c.note_breaker_open("a", "a#1");
        c.note_breaker_rejection("a", "a#1");
        c.note_skips("GetInfoByState", 3);
        c.note_skips("GetInfoByState", 0); // no-op
        c.note_skips("GetPlacesInside", 1);
        let s = c.snapshot();
        assert_eq!(s.retries, 3);
        assert_eq!(s.deadline_exceeded, 1);
        assert_eq!(s.breaker_opens, 1);
        assert_eq!(s.breaker_rejections, 1);
        assert_eq!(s.skipped_params, 4);
        assert_eq!(
            s.per_provider,
            vec![
                (
                    "a".to_owned(),
                    ProviderResilience {
                        retries: 2,
                        breaker_opens: 1,
                        breaker_rejections: 1,
                    }
                ),
                (
                    "b".to_owned(),
                    ProviderResilience {
                        retries: 1,
                        ..Default::default()
                    }
                ),
            ]
        );
        assert_eq!(
            s.per_replica,
            vec![
                (
                    ("a".to_owned(), "a".to_owned()),
                    ProviderResilience {
                        retries: 1,
                        ..Default::default()
                    }
                ),
                (
                    ("a".to_owned(), "a#1".to_owned()),
                    ProviderResilience {
                        retries: 1,
                        breaker_opens: 1,
                        breaker_rejections: 1,
                    }
                ),
                (
                    ("b".to_owned(), "b".to_owned()),
                    ProviderResilience {
                        retries: 1,
                        ..Default::default()
                    }
                ),
            ]
        );
        assert_eq!(
            s.skipped_by_owf,
            vec![
                ("GetInfoByState".to_owned(), 3),
                ("GetPlacesInside".to_owned(), 1)
            ]
        );
        assert!(!s.is_quiet());
        assert!(ResilienceCollector::default().snapshot().is_quiet());
    }

    #[test]
    fn admission_defaults_admit_everything() {
        let ac = Arc::new(AdmissionControl::default());
        let quota = QuotaPolicy::default();
        let g1 = ac.admit_query("a", quota).expect("admit");
        let g2 = ac.admit_query("b", quota).expect("admit");
        let gate = ac.gate("a", quota);
        let t1 = gate.begin_call("Op").expect("call");
        let t2 = gate.begin_call("Op").expect("call");
        assert_eq!(ac.stats().active_queries, 2);
        assert_eq!(ac.stats().inflight_calls, 2);
        drop((t1, t2, g1, g2));
        assert_eq!(ac.stats().active_queries, 0);
        assert_eq!(ac.stats().inflight_calls, 0);
        assert_eq!(ac.stats().shed_queries, 0);
        assert_eq!(ac.stats().shed_calls, 0);
    }

    #[test]
    fn query_quota_sheds_then_recovers() {
        let ac = Arc::new(AdmissionControl::default());
        let quota = QuotaPolicy {
            max_concurrent_queries: Some(1),
            ..Default::default()
        };
        let guard = ac.admit_query("a", quota).expect("first admitted");
        let err = ac.admit_query("b", quota).expect_err("second shed");
        assert!(matches!(err, CoreError::Admission { ref tenant, .. } if tenant == "b"));
        assert_eq!(ac.stats().shed_queries, 1);
        drop(guard);
        ac.admit_query("b", quota).expect("slot released");
    }

    #[test]
    fn call_budgets_shed_per_tenant_and_globally() {
        let ac = Arc::new(AdmissionControl::default());
        let quota = QuotaPolicy {
            per_tenant_inflight_calls: Some(1),
            max_inflight_calls: Some(2),
            ..Default::default()
        };
        let a = ac.gate("a", quota);
        let b = ac.gate("b", quota);
        let c = ac.gate("c", quota);
        let ta = a.begin_call("Op").expect("a admitted");
        // Tenant budget: a's second concurrent call sheds.
        assert!(a.begin_call("Op").is_err());
        let tb = b.begin_call("Op").expect("b admitted");
        // Global budget: a third in-flight call sheds even for a fresh
        // tenant, and failing the global check charges nothing.
        assert!(c.begin_call("Op").is_err());
        assert_eq!(ac.stats().inflight_calls, 2);
        assert_eq!(ac.stats().shed_calls, 2);
        drop(tb);
        let tc = c.begin_call("Op").expect("slot released");
        drop(ta);
        assert_eq!(ac.stats().inflight_calls, 1);
        drop(tc);
        assert_eq!(ac.stats().inflight_calls, 0);
        // Two gates for one tenant share the in-flight counter.
        let a2 = ac.gate("a", quota);
        let t = a.begin_call("Op").expect("a idle again");
        assert!(a2.begin_call("Op").is_err());
        drop(t);
        assert_eq!(a.tenant(), "a");
    }

    #[test]
    fn breaker_totals_accumulate_across_busy_periods() {
        let breakers = Breakers::default();
        let policy = BreakerPolicy {
            failure_threshold: 1,
            cooldown_model_secs: 5.0,
            half_open_probes: 1,
            probe_after_rejections: 0,
        };
        breakers.begin_run();
        assert_eq!(
            breakers.on_failure("p", &policy, 0.0),
            Some(Transition::Opened)
        );
        assert!(!breakers.admit("p", &policy, 1.0).allowed);
        assert!(breakers.admit("p", &policy, 6.0).went_half_open);
        assert_eq!(breakers.on_success("p"), Some(Transition::Closed));
        breakers.end_run();
        // Next busy period clears state but keeps totals.
        breakers.begin_run();
        assert!(breakers.admit("p", &policy, 0.0).allowed);
        breakers.end_run();
        assert_eq!(
            breakers.totals(),
            BreakerTotals {
                opens: 1,
                half_opens: 1,
                closes: 1,
                rejections: 1,
            }
        );
        // Overlapping runs share state: the second begin_run does not
        // clear the open breaker.
        breakers.begin_run();
        assert_eq!(
            breakers.on_failure("p", &policy, 0.0),
            Some(Transition::Opened)
        );
        breakers.begin_run();
        assert!(!breakers.admit("p", &policy, 1.0).allowed);
        breakers.end_run();
        breakers.end_run();
    }

    #[test]
    fn skip_sink_routes_and_drains() {
        // No sink: the local route reports false.
        assert!(!note_skip_local("X"));
        install_skip_sink();
        assert!(note_skip_local("X"));
        assert!(note_skip_local("Y"));
        assert!(note_skip_local("X"));
        assert_eq!(skip_sink_len(), 3);
        let drained = take_skip_sink();
        assert_eq!(drained, vec![("X".to_owned(), 2), ("Y".to_owned(), 1)]);
        // Sink gone again.
        assert!(!note_skip_local("X"));
        assert_eq!(skip_sink_len(), 0);
        assert!(take_skip_sink().is_empty());
    }
}
