//! Warm process-tree pool: reuse query processes across executions.
//!
//! The paper's §IV/§V cost analysis singles out process startup and
//! plan-function shipping as the overheads parallelization must amortize —
//! it is why `AFF_APPLYP` grows its tree incrementally instead of spawning
//! a wide fanout up front. This module removes those overheads from the
//! steady state entirely: at the end of a successful run the coordinator
//! *parks* its child query processes here instead of joining them, keyed
//! by plan-function content digest (`cache::pf_digest`) and tree
//! level, and the next run's `FF_APPLYP`/`AFF_APPLYP` *acquire* warm
//! processes — skipping the modeled startup and plan-ship charges, the
//! compile, and the task spawn. Because a parked child keeps its own
//! (already installed) subtree alive, acquiring one warm level-1 process
//! reclaims the whole warm tree below it.
//!
//! The pool is owned by the mediator ([`crate::Wsmed`]) and outlives
//! individual executions; the per-run [`crate::exec::ExecContext`] holds
//! only a `Weak` reference so parked processes (which hold the context
//! `Arc`) never form a strong cycle with the pool that owns their
//! handles. A process the pool lets go is ended by whoever holds it next:
//! `release` returns what it evicts, `acquire` hands out expired processes
//! one at a time, and [`ProcessPool::clear`] waits for what it drops.

use std::collections::HashMap;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

use parking_lot::Mutex;

use crate::exec::process::ChildProc;
use crate::exec::runtime;

/// Configuration of the warm process pool, installed via
/// [`crate::Wsmed::set_pool_policy`] and mirroring
/// [`crate::transport::BatchPolicy`] / [`crate::cache::CachePolicy`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PoolPolicy {
    /// Maximum idle processes parked per (plan function, tree level) key;
    /// releasing beyond this evicts the oldest parked process of the key.
    pub max_idle_per_pf: usize,
    /// Maximum idle processes parked across all keys; releasing beyond
    /// this evicts the globally oldest parked process.
    pub max_idle_total: usize,
    /// Model-seconds a parked process stays warm; `None` never expires.
    /// Expiry is measured in *model* time, so it only takes effect when
    /// the simulation runs at a non-zero time scale (matching
    /// [`crate::cache::CachePolicy::ttl_model_secs`]).
    pub idle_ttl_model_secs: Option<f64>,
    /// Master switch: when false, every spawn is cold and nothing parks.
    pub enabled: bool,
    /// Fair-share bound on warm acquisitions per query (`None` =
    /// unlimited). With many queries sharing one pool, an unbounded
    /// first-comer drains every warm process LIFO; capping per-query
    /// acquisitions slices the warm fleet round-robin across queries
    /// (each query stays LIFO — warmest-first — within its budget) while
    /// the losers fall back to cold spawns instead of starving.
    pub warm_acquire_budget_per_query: Option<u64>,
}

impl Default for PoolPolicy {
    fn default() -> Self {
        PoolPolicy {
            max_idle_per_pf: 8,
            max_idle_total: 64,
            idle_ttl_model_secs: None,
            enabled: true,
            warm_acquire_budget_per_query: None,
        }
    }
}

/// Per-run pool counters, surfaced in [`crate::ExecutionReport::pool`].
/// All counters reset at the start of each run; parked processes persist.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PoolStats {
    /// Child processes acquired warm from the pool this run.
    pub warm_acquires: u64,
    /// Child processes spawned cold this run (each charged the modeled
    /// `process_startup` plus plan-shipping cost).
    pub cold_spawns: u64,
    /// Modeled seconds of startup + plan-ship cost skipped this run,
    /// counting both the acquired processes and every process of the warm
    /// subtrees re-attached beneath them.
    pub startup_model_secs_saved: f64,
    /// Parked processes evicted this run (bounds, TTL, or a dead thread
    /// discovered at acquire time).
    pub evictions: u64,
}

/// Per-query attribution counters for one shared [`ProcessPool`], owned
/// by the execution context. Scoped pool operations bump both the
/// pool-global counters and the acquiring query's scope, so a query's
/// [`crate::ExecutionReport::pool`] describes *its* warm reuse even when
/// many queries share the pool concurrently. The warm-acquire count also
/// enforces [`PoolPolicy::warm_acquire_budget_per_query`].
#[derive(Debug, Default)]
pub(crate) struct PoolScope {
    warm_acquires: AtomicU64,
    cold_spawns: AtomicU64,
    saved_micros: AtomicU64,
    evictions: AtomicU64,
}

impl PoolScope {
    /// Warm acquisitions so far this run (the fair-share budget meter).
    pub(crate) fn warm_acquires(&self) -> u64 {
        self.warm_acquires.load(Ordering::Relaxed)
    }

    /// This query's slice of the shared pool activity.
    pub(crate) fn snapshot(&self) -> PoolStats {
        PoolStats {
            warm_acquires: self.warm_acquires.load(Ordering::Relaxed),
            cold_spawns: self.cold_spawns.load(Ordering::Relaxed),
            startup_model_secs_saved: self.saved_micros.load(Ordering::Relaxed) as f64 / 1e6,
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }
}

/// One parked (idle, warm) query process.
struct ParkedProc {
    proc: ChildProc,
    parked_at: Instant,
    /// Modeled seconds (startup + plan ship) a future warm acquire of
    /// this process will skip, recorded by the parking parent.
    saved_model_secs: f64,
}

/// What [`ProcessPool::acquire`] popped.
pub(crate) enum Acquired {
    /// A warm process, ready to be re-attached.
    Warm {
        /// The parked child process handle.
        proc: ChildProc,
        /// Modeled seconds the acquire skipped (startup + plan ship).
        saved_model_secs: f64,
    },
    /// A parked process past its TTL, evicted: the caller ends it and asks
    /// again.
    Expired(ChildProc),
}

#[derive(Default)]
struct PoolInner {
    /// Parked processes per (plan-function digest, tree level). Keying by
    /// level as well as digest means a warm subtree is only ever re-used
    /// at the tree position it was built for.
    idle: HashMap<(String, usize), VecDeque<ParkedProc>>,
    total: usize,
}

/// The warm process pool. One per [`crate::Wsmed`]; shared with the
/// execution context through a `Weak` reference.
pub struct ProcessPool {
    policy: PoolPolicy,
    time_scale: f64,
    inner: Mutex<PoolInner>,
    warm_acquires: AtomicU64,
    cold_spawns: AtomicU64,
    saved_micros: AtomicU64,
    evictions: AtomicU64,
    /// Runs currently using this pool; counters reset only on the
    /// idle → busy edge so overlapping runs share one busy period.
    active_runs: AtomicUsize,
}

impl std::fmt::Debug for ProcessPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProcessPool")
            .field("policy", &self.policy)
            .field("idle", &self.idle_total())
            .field("stats", &self.stats())
            .finish()
    }
}

impl ProcessPool {
    /// Creates an empty pool with the given policy. `time_scale` is the
    /// simulation time scale the TTL is measured against.
    pub fn new(policy: PoolPolicy, time_scale: f64) -> Self {
        ProcessPool {
            policy,
            time_scale,
            inner: Mutex::default(),
            warm_acquires: AtomicU64::new(0),
            cold_spawns: AtomicU64::new(0),
            saved_micros: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            active_runs: AtomicUsize::new(0),
        }
    }

    /// The installed policy.
    pub fn policy(&self) -> PoolPolicy {
        self.policy
    }

    /// Starts a run against this pool. Counters reset only on the
    /// idle → busy edge (no other run active); overlapping runs join the
    /// busy period. Parked processes are kept either way — cross-run
    /// reuse is the pool's entire point. Pair with
    /// [`ProcessPool::end_run`].
    pub fn begin_run(&self) {
        if self.active_runs.fetch_add(1, Ordering::AcqRel) > 0 {
            return;
        }
        self.warm_acquires.store(0, Ordering::Relaxed);
        self.cold_spawns.store(0, Ordering::Relaxed);
        self.saved_micros.store(0, Ordering::Relaxed);
        self.evictions.store(0, Ordering::Relaxed);
    }

    /// Marks one run as finished with this pool.
    pub fn end_run(&self) {
        // Tolerate historical callers that paired begin_run with nothing.
        let _ = self
            .active_runs
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |v| v.checked_sub(1));
    }

    /// Snapshot of the busy-period counters (equals per-run counters for
    /// sequential callers).
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            warm_acquires: self.warm_acquires.load(Ordering::Relaxed),
            cold_spawns: self.cold_spawns.load(Ordering::Relaxed),
            startup_model_secs_saved: self.saved_micros.load(Ordering::Relaxed) as f64 / 1e6,
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }

    /// Total processes currently parked.
    pub fn idle_total(&self) -> usize {
        self.inner.lock().total
    }

    fn note_evictions(&self, n: u64, scope: Option<&PoolScope>) {
        if n == 0 {
            return;
        }
        self.evictions.fetch_add(n, Ordering::Relaxed);
        if let Some(scope) = scope {
            scope.evictions.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Counts one cold spawn (called from `ChildProc::spawn`, the single
    /// site that charges the modeled startup cost — so `cold_spawns` is
    /// exactly the number of startup charges this run).
    pub(crate) fn note_cold_spawn(&self, scope: Option<&PoolScope>) {
        self.cold_spawns.fetch_add(1, Ordering::Relaxed);
        if let Some(scope) = scope {
            scope.cold_spawns.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Pops the most recently parked (warmest) process for a key: warm, or
    /// expired past its TTL (counted as an eviction). Returns `None` when
    /// the pool is disabled, has nothing parked for this key, or the
    /// acquiring query's fair-share budget
    /// ([`PoolPolicy::warm_acquire_budget_per_query`]) is spent.
    pub(crate) fn acquire(
        &self,
        digest: &str,
        level: usize,
        scope: Option<&PoolScope>,
    ) -> Option<Acquired> {
        if !self.policy.enabled {
            return None;
        }
        if let (Some(budget), Some(scope)) = (self.policy.warm_acquire_budget_per_query, scope) {
            if scope.warm_acquires() >= budget {
                return None; // budget spent: fall back to a cold spawn
            }
        }
        let parked = {
            let mut inner = self.inner.lock();
            let key = (digest.to_owned(), level);
            let queue = inner.idle.get_mut(&key)?;
            let parked = queue.pop_back();
            if queue.is_empty() {
                inner.idle.remove(&key);
            }
            inner.total -= usize::from(parked.is_some());
            parked?
        };
        if self.is_expired(&parked) {
            self.note_evictions(1, scope);
            return Some(Acquired::Expired(parked.proc));
        }
        Some(Acquired::Warm {
            proc: parked.proc,
            saved_model_secs: parked.saved_model_secs,
        })
    }

    /// Counts a successful warm attach: one spawn's worth of modeled
    /// startup + plan-ship cost skipped.
    pub(crate) fn note_warm_acquire(&self, saved_model_secs: f64, scope: Option<&PoolScope>) {
        self.warm_acquires.fetch_add(1, Ordering::Relaxed);
        if let Some(scope) = scope {
            scope.warm_acquires.fetch_add(1, Ordering::Relaxed);
        }
        self.note_saved(saved_model_secs, scope);
    }

    /// Adds skipped modeled cost without counting an acquire — used for
    /// the subtree processes re-attached beneath a warm acquire (each
    /// skipped its own startup + plan-ship charge, but was never itself in
    /// the pool).
    pub(crate) fn note_saved(&self, saved_model_secs: f64, scope: Option<&PoolScope>) {
        let micros = (saved_model_secs * 1e6) as u64;
        self.saved_micros.fetch_add(micros, Ordering::Relaxed);
        if let Some(scope) = scope {
            scope.saved_micros.fetch_add(micros, Ordering::Relaxed);
        }
    }

    /// Counts a parked process that turned out to be dead at attach time.
    pub(crate) fn note_dead_on_acquire(&self, scope: Option<&PoolScope>) {
        self.note_evictions(1, scope);
    }

    /// Parks an idle process for later reuse, evicting the oldest parked
    /// processes beyond the per-key and total bounds. `saved_model_secs`
    /// is the modeled cost a future warm acquire will skip (startup plus
    /// plan shipping for this process's plan-function bytes). Returns the
    /// processes the caller must end: the evicted ones, or `proc` itself
    /// when the pool keeps nothing.
    #[must_use]
    pub(crate) fn release(
        &self,
        digest: &str,
        level: usize,
        proc: ChildProc,
        saved_model_secs: f64,
        scope: Option<&PoolScope>,
    ) -> Vec<ChildProc> {
        if !self.policy.enabled
            || self.policy.max_idle_total == 0
            || self.policy.max_idle_per_pf == 0
        {
            return vec![proc]; // cold teardown
        }
        let mut evicted: Vec<ChildProc> = Vec::new();
        {
            let mut inner = self.inner.lock();
            let queue = inner.idle.entry((digest.to_owned(), level)).or_default();
            queue.push_back(ParkedProc {
                proc,
                parked_at: Instant::now(),
                saved_model_secs,
            });
            while queue.len() > self.policy.max_idle_per_pf {
                if let Some(old) = queue.pop_front() {
                    evicted.push(old.proc);
                }
            }
            inner.total = inner.total + 1 - evicted.len();
            while inner.total > self.policy.max_idle_total {
                if let Some(old) = Self::pop_globally_oldest(&mut inner) {
                    evicted.push(old.proc);
                    inner.total -= 1;
                } else {
                    break;
                }
            }
        }
        self.note_evictions(evicted.len() as u64, scope);
        evicted
    }

    /// Ends every parked process and waits for their subtrees to finish.
    /// Used when the catalog or policy changes invalidate warm state.
    pub fn clear(&self) {
        let drained: Vec<ChildProc> = {
            let mut inner = self.inner.lock();
            inner.total = 0;
            inner
                .idle
                .drain()
                .flat_map(|(_, q)| q.into_iter().map(|p| p.proc))
                .collect()
        };
        runtime::block_on(ChildProc::join_all(drained));
    }

    fn pop_globally_oldest(inner: &mut PoolInner) -> Option<ParkedProc> {
        let key = inner
            .idle
            .iter()
            .filter(|(_, q)| !q.is_empty())
            .min_by_key(|(_, q)| q.front().map(|p| p.parked_at))?
            .0
            .clone();
        let queue = inner.idle.get_mut(&key)?;
        let oldest = queue.pop_front();
        if queue.is_empty() {
            inner.idle.remove(&key);
        }
        oldest
    }

    fn is_expired(&self, parked: &ParkedProc) -> bool {
        let Some(ttl) = self.policy.idle_ttl_model_secs else {
            return false;
        };
        // Model-time TTL: only measurable when the sim is time-scaled.
        self.time_scale > 0.0 && parked.parked_at.elapsed().as_secs_f64() / self.time_scale >= ttl
    }
}

impl Drop for ProcessPool {
    fn drop(&mut self) {
        self.clear();
    }
}
