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
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use parking_lot::Mutex;
use wsmed_netsim::runtime;

use crate::exec::process::ChildProc;

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
}

impl Default for PoolPolicy {
    fn default() -> Self {
        PoolPolicy {
            max_idle_per_pf: 8,
            max_idle_total: 64,
            idle_ttl_model_secs: None,
        }
    }
}

/// Per-run pool counters, surfaced in [`crate::ExecutionReport::pool`]:
/// each run counts its own pool traffic from zero; parked processes
/// persist.
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

/// The pool counters of one run, owned by its execution context: every
/// pool operation counts its event here, in the scope of the run that
/// caused it, and nowhere else, so a query's
/// [`crate::ExecutionReport::pool`] describes *its* warm reuse even when
/// many queries share the pool concurrently.
#[derive(Debug, Default)]
pub(crate) struct PoolScope {
    warm_acquires: AtomicU64,
    cold_spawns: AtomicU64,
    saved_micros: AtomicU64,
    evictions: AtomicU64,
}

impl PoolScope {
    /// Counts one cold spawn (called from `ChildProc::spawn`, the single
    /// site that charges the modeled startup cost — so `cold_spawns` is
    /// exactly the number of startup charges this run).
    pub(crate) fn note_cold_spawn(&self) {
        self.cold_spawns.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a successful warm attach: one spawn's worth of modeled
    /// startup + plan-ship cost skipped.
    pub(crate) fn note_warm_acquire(&self, saved_model_secs: f64) {
        self.warm_acquires.fetch_add(1, Ordering::Relaxed);
        self.note_saved(saved_model_secs);
    }

    /// Adds skipped modeled cost without counting an acquire — used for
    /// the subtree processes re-attached beneath a warm acquire (each
    /// skipped its own startup + plan-ship charge, but was never itself in
    /// the pool).
    pub(crate) fn note_saved(&self, saved_model_secs: f64) {
        let micros = (saved_model_secs * 1e6) as u64;
        self.saved_micros.fetch_add(micros, Ordering::Relaxed);
    }

    /// Counts parked processes let go: evicted by the bounds or the TTL,
    /// or found dead at attach time.
    pub(crate) fn note_evictions(&self, n: u64) {
        self.evictions.fetch_add(n, Ordering::Relaxed);
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
}

impl std::fmt::Debug for ProcessPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProcessPool")
            .field("policy", &self.policy)
            .field("idle", &self.idle_total())
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
        }
    }

    /// The installed policy.
    pub fn policy(&self) -> PoolPolicy {
        self.policy
    }

    /// Total processes currently parked.
    pub fn idle_total(&self) -> usize {
        self.inner.lock().total
    }

    /// Pops the most recently parked (warmest) process for a key: warm, or
    /// expired past its TTL (counted as an eviction). Returns `None` when
    /// nothing is parked for this key.
    pub(crate) fn acquire(
        &self,
        digest: &str,
        level: usize,
        scope: &PoolScope,
    ) -> Option<Acquired> {
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
            scope.note_evictions(1);
            return Some(Acquired::Expired(parked.proc));
        }
        Some(Acquired::Warm {
            proc: parked.proc,
            saved_model_secs: parked.saved_model_secs,
        })
    }

    /// Parks an idle process for later reuse, evicting the oldest parked
    /// processes beyond the per-key and total bounds. `saved_model_secs`
    /// is the modeled cost a future warm acquire will skip (startup plus
    /// plan shipping for this process's plan-function bytes). Returns the
    /// evicted processes, which the caller must end.
    #[must_use]
    pub(crate) fn release(
        &self,
        digest: &str,
        level: usize,
        proc: ChildProc,
        saved_model_secs: f64,
        scope: &PoolScope,
    ) -> Vec<ChildProc> {
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
        scope.note_evictions(evicted.len() as u64);
        evicted
    }

    /// Ends every parked process and waits for their subtrees to finish
    /// (on a worker thread it ends them without waiting). Used when the
    /// catalog or policy changes invalidate warm state.
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
        let ended = ChildProc::join_all(drained);
        if runtime::on_worker() {
            // A query process held the last handle (a run abandoned while
            // its tasks ran on): waiting here would hold its worker.
            drop(runtime::spawn(ended));
        } else {
            runtime::block_on(ended);
        }
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
