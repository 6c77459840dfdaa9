//! The web-service call cache: sharded, single-flight, reusable across runs.
//!
//! Data-providing web services are side-effect-free (the paper's §I
//! premise), so a repeated call with identical arguments must return the
//! same result — the mediator can answer it from memory. Dependent joins
//! over skewed parameter streams (the Query2-style zip→place chains) re-
//! issue the same downstream call many times, both *within* a run and
//! *across* runs, and the web service call is by far the most expensive
//! "operator" in any plan, so a memoized answer is always the cheapest one.
//!
//! Three mechanisms make the cache scale with the process tree instead of
//! serializing it:
//!
//! * **Sharding** — keys hash to one of [`CachePolicy::shards`]
//!   independently locked maps, so concurrent query processes on different
//!   keys never contend on a global lock.
//! * **Single-flight deduplication** — when several query processes miss
//!   on the *same* key concurrently, exactly one issues the web service
//!   call; the rest wait on a per-key in-flight latch and receive the
//!   leader's value. A failed leader releases its waiters without caching
//!   anything (each waiter then retries on its own, preserving uncached
//!   error semantics).
//! * **LRU eviction with optional model-time TTL** — each shard keeps a
//!   lazy recency queue; inserts beyond the per-shard capacity evict the
//!   least recently used entry, and entries older than
//!   [`CachePolicy::ttl_model_secs`] model seconds expire on access.
//!
//! The cache also memoizes whole **plan-function invocations** (keyed by a
//! digest of the shipped plan-function bytes plus the encoded parameter
//! tuple), which is what lets `FF_APPLYP`/`AFF_APPLYP` dispatch answer an
//! already-seen parameter parent-side instead of shipping it to a child —
//! the *dedup-aware dispatch* counted by `cache_short_circuits`.

use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, VecDeque};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex};
use std::task::{Context, Poll, Waker};
use std::time::{Duration, Instant};

use bytes::Bytes;
use parking_lot::Mutex;

use wsmed_store::{Tuple, Value};

/// How long a single-flight waiter blocks on the in-flight latch before
/// giving up and issuing its own call. Generously above any modeled
/// latency; only reached if the leading thread died without completing.
const WAIT_TIMEOUT: Duration = Duration::from_secs(120);

/// Configuration of the [`CallCache`].
///
/// Installed on the mediator via [`crate::Wsmed::set_cache_policy`];
/// `None` there disables caching.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CachePolicy {
    /// Maximum cached entries (split evenly across shards, LRU beyond).
    pub capacity: usize,
    /// Model-seconds a cached entry stays fresh; `None` never expires.
    /// Expiry is measured in *model* time, so it only takes effect when
    /// the simulation runs at a non-zero time scale.
    pub ttl_model_secs: Option<f64>,
    /// Number of independently locked shards (≥ 1; default 16).
    pub shards: usize,
    /// Keep entries across runs of the same [`crate::Wsmed`]. When false
    /// the cache is cleared at the start of every run (the historical
    /// per-run memoization behaviour).
    pub cross_run: bool,
    /// Deduplicate concurrent identical calls through an in-flight latch.
    /// Disabling it turns a concurrent duplicate into a second real call
    /// (the ablation baseline).
    pub single_flight: bool,
}

impl Default for CachePolicy {
    fn default() -> Self {
        CachePolicy {
            capacity: 100_000,
            ttl_model_secs: None,
            shards: 16,
            cross_run: false,
            single_flight: true,
        }
    }
}

impl CachePolicy {
    /// A policy that keeps entries across runs of the same mediator.
    pub fn cross_run() -> Self {
        CachePolicy {
            cross_run: true,
            ..Default::default()
        }
    }
}

/// Key of one cached web service call: the OWF name plus the arguments
/// serialized through the wire format, so value equality is structural
/// (bit-exact for reals — the same discrimination `Value::total_cmp`
/// makes).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey {
    owf: String,
    args: Bytes,
}

impl CacheKey {
    /// Builds the key for a web service call `owf(args)`.
    pub fn for_call(owf: &str, args: &[Value]) -> Self {
        CacheKey {
            owf: owf.to_owned(),
            args: crate::wire::encode_value_slice(args),
        }
    }

    /// Builds the key for a plan-function invocation: the content digest
    /// of the shipped plan function plus the already-encoded parameter
    /// tuple.
    pub(crate) fn for_rows(pf_digest: &str, param: &Bytes) -> Self {
        CacheKey {
            owf: pf_digest.to_owned(),
            args: param.clone(),
        }
    }

    /// [`CacheKey::for_rows`] for row `i` of a columnar batch: the key
    /// bytes come straight from the column slices
    /// ([`crate::wire::encode_row_tuple`]) without materializing the row
    /// as a `Tuple`, and equal the parent-side `encode_tuple` key bytes
    /// exactly — the memo-parity invariant the dedup screens rely on.
    pub(crate) fn for_batch_row(
        pf_digest: &str,
        batch: &wsmed_store::ValueBatch,
        i: usize,
    ) -> Self {
        CacheKey {
            owf: pf_digest.to_owned(),
            args: crate::wire::encode_row_tuple(batch, i),
        }
    }
}

/// Content digest of a shipped plan function, used to scope the rows memo
/// so equally named plan functions of *different* queries never collide.
pub(crate) fn pf_digest(pf_name: &str, pf_bytes: &[u8]) -> String {
    // FNV-1a, 64-bit: tiny, deterministic, good enough to content-address
    // the handful of plan functions alive in one mediator.
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in pf_bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("pf:{pf_name}:{}:{hash:016x}", pf_bytes.len())
}

/// Per-run cache counters, surfaced in
/// [`crate::ExecutionReport::cache`]. All counters reset at the start of
/// each run (entries may persist when the policy is cross-run).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Web service calls answered from a completed cache entry.
    pub hits: u64,
    /// Web service calls that went to the transport (cache enabled).
    pub misses: u64,
    /// Calls that blocked on another process's identical in-flight call
    /// and received its value instead of issuing a duplicate.
    pub dedup_waits: u64,
    /// Entries removed by LRU pressure or TTL expiry.
    pub evictions: u64,
    /// Parameter tuples answered parent-side by dedup-aware dispatch
    /// instead of being shipped to a child query process.
    pub short_circuits: u64,
    /// Hits (including dedup waits and short circuits) whose entry was
    /// produced by a *different* query sharing this cache — the
    /// cross-query single-flight payoff under a concurrent mediator.
    pub cross_query_hits: u64,
    /// Entries resident when the snapshot was taken (calls + memoized
    /// plan-function invocations).
    pub entries: u64,
}

impl CacheStats {
    /// Cache lookups that did not reach the transport, as a fraction of
    /// all call lookups (`None` when no lookup happened).
    pub fn hit_rate(&self) -> Option<f64> {
        let total = self.hits + self.misses + self.dedup_waits;
        (total > 0).then(|| (self.hits + self.dedup_waits) as f64 / total as f64)
    }
}

/// Per-query attribution counters for one shared [`CallCache`]. Every
/// execution context owns one; scoped cache operations bump both the
/// cache-global counters and the caller's scope, so a query's
/// [`crate::ExecutionReport::cache`] describes *its* traffic even when
/// many queries share the cache concurrently.
#[derive(Debug, Default)]
pub(crate) struct CacheScope {
    query: u64,
    hits: AtomicU64,
    misses: AtomicU64,
    dedup_waits: AtomicU64,
    evictions: AtomicU64,
    short_circuits: AtomicU64,
    cross_query_hits: AtomicU64,
}

impl CacheScope {
    /// A zeroed scope for one run attributed to query `query`.
    pub(crate) fn new(query: u64) -> Self {
        CacheScope {
            query,
            ..Default::default()
        }
    }

    /// The query id entries produced through this scope are tagged with.
    pub(crate) fn query(&self) -> u64 {
        self.query
    }

    fn note_hit(&self, owner: u64) {
        self.hits.fetch_add(1, Ordering::Relaxed);
        if owner != self.query() {
            self.cross_query_hits.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// This query's slice of the shared cache activity; `entries` is the
    /// cache-global resident count at snapshot time.
    pub(crate) fn snapshot(&self, entries: u64) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            dedup_waits: self.dedup_waits.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            short_circuits: self.short_circuits.load(Ordering::Relaxed),
            cross_query_hits: self.cross_query_hits.load(Ordering::Relaxed),
            entries,
        }
    }
}

/// Eviction counter fan-out: every eviction is charged to the cache's
/// global counter and, when the evicting operation ran under a query's
/// scope, to that scope as well.
#[derive(Clone, Copy)]
struct EvictSink<'a> {
    global: &'a AtomicU64,
    scope: Option<&'a AtomicU64>,
}

impl EvictSink<'_> {
    fn add(&self, n: u64) {
        if n == 0 {
            return;
        }
        self.global.fetch_add(n, Ordering::Relaxed);
        if let Some(scope) = self.scope {
            scope.fetch_add(n, Ordering::Relaxed);
        }
    }
}

// ---------------------------------------------------------------- latch --

/// The per-key in-flight latch single-flight waiters wait on: a task awaits
/// it ([`Latch::poll_wait`]), a plain thread blocks on it ([`Latch::wait`]).
struct Latch<V> {
    state: StdMutex<FlightState<V>>,
    cv: Condvar,
}

enum FlightState<V> {
    /// In flight; the wakers of the tasks awaiting it.
    Pending(Vec<Waker>),
    Done(V),
    /// The leader's call failed; waiters must retry themselves.
    Aborted,
}

impl<V: Clone> Latch<V> {
    fn new() -> Arc<Self> {
        Arc::new(Latch {
            state: StdMutex::new(FlightState::Pending(Vec::new())),
            cv: Condvar::new(),
        })
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, FlightState<V>> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn settle(&self, outcome: Option<V>) {
        let settled = match outcome {
            Some(v) => FlightState::Done(v),
            None => FlightState::Aborted,
        };
        let waiting = std::mem::replace(&mut *self.lock(), settled);
        self.cv.notify_all();
        if let FlightState::Pending(wakers) = waiting {
            wakers.into_iter().for_each(Waker::wake);
        }
    }

    /// The outcome once the leader settles (`None`: aborted, the waiter
    /// retries itself); until then the task is woken when it does. The
    /// leader's flight settles also when it unwinds, so a task waits no
    /// longer than the leader's call; a leader that never returns is the
    /// run's wedge, caught by its coordinator.
    fn poll_wait(&self, cx: &mut Context<'_>) -> Poll<Option<V>> {
        match &mut *self.lock() {
            FlightState::Done(v) => Poll::Ready(Some(v.clone())),
            FlightState::Aborted => Poll::Ready(None),
            FlightState::Pending(wakers) => {
                if !wakers.iter().any(|w| w.will_wake(cx.waker())) {
                    wakers.push(cx.waker().clone());
                }
                Poll::Pending
            }
        }
    }

    /// Blocks the calling thread until the leader settles; `None` means
    /// aborted (or the leader vanished past the timeout) — the waiter
    /// retries itself. For callers outside the task runtime.
    fn wait(&self) -> Option<V> {
        let mut state = self.lock();
        let deadline = Instant::now() + WAIT_TIMEOUT;
        loop {
            match &*state {
                FlightState::Done(v) => return Some(v.clone()),
                FlightState::Aborted => return None,
                FlightState::Pending(_) => {}
            }
            let timeout = deadline.saturating_duration_since(Instant::now());
            if timeout.is_zero() {
                return None;
            }
            let (guard, _) = self
                .cv
                .wait_timeout(state, timeout)
                .unwrap_or_else(|e| e.into_inner());
            state = guard;
        }
    }
}

// --------------------------------------------------------------- shards --

enum EntryState<V> {
    Ready {
        value: V,
        stamp: u64,
        inserted: Instant,
        /// Query id of the run that produced the value (0 for unscoped
        /// callers) — the provenance behind `cross_query_hits`.
        owner: u64,
    },
    InFlight(Arc<Latch<V>>, u64),
}

struct Shard<V> {
    map: HashMap<CacheKey, EntryState<V>>,
    /// Lazy LRU order: `(key, stamp)` pairs; an entry is current only if
    /// its stamp matches the map's. Stale pairs are skipped on eviction
    /// and compacted away when the queue outgrows the shard.
    queue: VecDeque<(CacheKey, u64)>,
    tick: u64,
    ready: usize,
}

impl<V> Default for Shard<V> {
    fn default() -> Self {
        Shard {
            map: HashMap::new(),
            queue: VecDeque::new(),
            tick: 0,
            ready: 0,
        }
    }
}

impl<V> Shard<V> {
    fn touch(&mut self, key: &CacheKey) -> u64 {
        self.tick += 1;
        self.queue.push_back((key.clone(), self.tick));
        self.tick
    }

    /// Evicts least-recently-used ready entries until `ready <= cap`.
    fn evict_to(&mut self, cap: usize, evictions: EvictSink<'_>) {
        while self.ready > cap {
            let Some((key, stamp)) = self.queue.pop_front() else {
                break; // only in-flight entries left
            };
            let current = matches!(
                self.map.get(&key),
                Some(EntryState::Ready { stamp: s, .. }) if *s == stamp
            );
            if current {
                self.map.remove(&key);
                self.ready -= 1;
                evictions.add(1);
            }
        }
        // Bound the lazy queue: rebuild it from live stamps when stale
        // pairs dominate.
        if self.queue.len() > 4 * cap.max(16) {
            let map = &self.map;
            self.queue.retain(
                |(key, stamp)| matches!(map.get(key), Some(EntryState::Ready { stamp: s, .. }) if s == stamp),
            );
        }
    }

    fn remove_ready(&mut self, key: &CacheKey) {
        if matches!(self.map.remove(key), Some(EntryState::Ready { .. })) {
            self.ready -= 1;
        }
    }
}

/// One sharded concurrent map with LRU + TTL + optional single-flight.
struct Sharded<V> {
    shards: Vec<Mutex<Shard<V>>>,
    per_shard_cap: usize,
}

/// Outcome of an internal lookup-or-begin. `Ready` and `Wait` carry the
/// query id that owns (or is producing) the entry.
enum Probe<V> {
    Ready(V, u64),
    Wait(Arc<Latch<V>>, u64),
    Begin,
}

impl<V: Clone> Sharded<V> {
    fn new(shards: usize, capacity: usize) -> Self {
        let shards = shards.max(1);
        let per_shard_cap = capacity.max(1).div_ceil(shards);
        Sharded {
            shards: (0..shards).map(|_| Mutex::new(Shard::default())).collect(),
            per_shard_cap,
        }
    }

    fn shard(&self, key: &CacheKey) -> &Mutex<Shard<V>> {
        let mut hasher = DefaultHasher::new();
        key.hash(&mut hasher);
        &self.shards[(hasher.finish() as usize) % self.shards.len()]
    }

    fn expired(ttl: Option<f64>, time_scale: f64, inserted: Instant) -> bool {
        match ttl {
            Some(ttl) if time_scale > 0.0 => inserted.elapsed().as_secs_f64() / time_scale >= ttl,
            _ => false,
        }
    }

    /// Non-blocking read; bumps recency, expires stale entries. Returns
    /// the value and the owning query's id.
    fn get(
        &self,
        key: &CacheKey,
        ttl: Option<f64>,
        time_scale: f64,
        evictions: EvictSink<'_>,
    ) -> Option<(V, u64)> {
        let mut shard = self.shard(key).lock();
        let inserted = match shard.map.get(key) {
            Some(EntryState::Ready { inserted, .. }) => *inserted,
            _ => return None,
        };
        if Self::expired(ttl, time_scale, inserted) {
            shard.remove_ready(key);
            evictions.add(1);
            return None;
        }
        let stamp = shard.touch(key);
        let Some(EntryState::Ready {
            value,
            stamp: s,
            owner,
            ..
        }) = shard.map.get_mut(key)
        else {
            unreachable!("entry vanished under the shard lock");
        };
        *s = stamp;
        Some((value.clone(), *owner))
    }

    /// Plain insert (used by the rows memo and by completing flights).
    fn insert(&self, key: &CacheKey, value: V, owner: u64, evictions: EvictSink<'_>) {
        let mut shard = self.shard(key).lock();
        let stamp = shard.touch(key);
        let was_ready = matches!(shard.map.get(key), Some(EntryState::Ready { .. }));
        shard.map.insert(
            key.clone(),
            EntryState::Ready {
                value,
                stamp,
                inserted: Instant::now(),
                owner,
            },
        );
        if !was_ready {
            shard.ready += 1;
        }
        shard.evict_to(self.per_shard_cap, evictions);
    }

    /// Read or register an in-flight entry under one lock acquisition.
    /// `owner` tags the in-flight entry with the would-be leader's query.
    fn probe(
        &self,
        key: &CacheKey,
        single_flight: bool,
        ttl: Option<f64>,
        time_scale: f64,
        owner: u64,
        evictions: EvictSink<'_>,
    ) -> Probe<V> {
        if !single_flight {
            return match self.get(key, ttl, time_scale, evictions) {
                Some((v, entry_owner)) => Probe::Ready(v, entry_owner),
                None => Probe::Begin,
            };
        }
        let mut shard = self.shard(key).lock();
        enum Seen<V> {
            Fresh,
            Expired,
            Wait(Arc<Latch<V>>, u64),
            Cold,
        }
        let seen = match shard.map.get(key) {
            Some(EntryState::Ready { inserted, .. }) => {
                if Self::expired(ttl, time_scale, *inserted) {
                    Seen::Expired
                } else {
                    Seen::Fresh
                }
            }
            Some(EntryState::InFlight(latch, leader)) => Seen::Wait(Arc::clone(latch), *leader),
            None => Seen::Cold,
        };
        match seen {
            Seen::Fresh => {
                let stamp = shard.touch(key);
                let Some(EntryState::Ready {
                    value,
                    stamp: s,
                    owner: entry_owner,
                    ..
                }) = shard.map.get_mut(key)
                else {
                    unreachable!("entry vanished under the shard lock");
                };
                *s = stamp;
                return Probe::Ready(value.clone(), *entry_owner);
            }
            Seen::Wait(latch, leader) => return Probe::Wait(latch, leader),
            Seen::Expired => {
                shard.remove_ready(key);
                evictions.add(1);
            }
            Seen::Cold => {}
        }
        shard
            .map
            .insert(key.clone(), EntryState::InFlight(Latch::new(), owner));
        Probe::Begin
    }

    /// Settles an in-flight entry: `Some` caches the value (owned by
    /// `owner`) and wakes the waiters with it; `None` removes the entry
    /// and wakes them empty-handed (error results are never cached).
    fn finish(&self, key: &CacheKey, outcome: Option<V>, owner: u64, evictions: EvictSink<'_>) {
        let latch = {
            let mut shard = self.shard(key).lock();
            let latch = match shard.map.get(key) {
                Some(EntryState::InFlight(latch, _)) => Some(Arc::clone(latch)),
                _ => None,
            };
            match &outcome {
                Some(value) => {
                    let stamp = shard.touch(key);
                    let was_ready = matches!(shard.map.get(key), Some(EntryState::Ready { .. }));
                    shard.map.insert(
                        key.clone(),
                        EntryState::Ready {
                            value: value.clone(),
                            stamp,
                            inserted: Instant::now(),
                            owner,
                        },
                    );
                    if !was_ready {
                        shard.ready += 1;
                    }
                    shard.evict_to(self.per_shard_cap, evictions);
                }
                None => {
                    if latch.is_some() {
                        shard.map.remove(key);
                    }
                }
            }
            latch
        };
        if let Some(latch) = latch {
            latch.settle(outcome);
        }
    }

    fn clear(&self) {
        for shard in &self.shards {
            let mut shard = shard.lock();
            // In-flight latches stay registered: clearing mid-call must
            // not strand waiters. Only settled entries are dropped.
            let retained: HashMap<CacheKey, EntryState<V>> = shard
                .map
                .drain()
                .filter(|(_, e)| matches!(e, EntryState::InFlight(..)))
                .collect();
            shard.map = retained;
            shard.queue.clear();
            shard.ready = 0;
        }
    }

    fn ready_entries(&self) -> usize {
        self.shards.iter().map(|s| s.lock().ready).sum()
    }
}

// ---------------------------------------------------------------- cache --

/// Outcome of [`CallCache::lookup_call`].
pub enum CallLookup<'a> {
    /// The call was answered from the cache.
    Hit {
        /// The cached response value.
        value: Value,
        /// True when this lookup blocked on another caller's in-flight
        /// call (single-flight dedup) rather than finding a stored value.
        waited: bool,
    },
    /// Cold key: the caller must issue the web service call and settle the
    /// returned flight with [`Flight::complete`] (dropping it unsettled
    /// releases any waiters empty-handed).
    Miss(Flight<'a>),
    /// An identical in-flight call failed (or its leader vanished); the
    /// caller should look up again and take the lead itself.
    Retry,
}

/// The leader's handle on an in-flight single-flight entry.
pub struct Flight<'a> {
    cache: &'a CallCache,
    key: CacheKey,
    settled: bool,
    owner: u64,
}

impl Flight<'_> {
    /// Caches `value` and hands it to every waiter.
    pub fn complete(mut self, value: &Value) {
        self.settled = true;
        self.cache.calls.finish(
            &self.key,
            Some(value.clone()),
            self.owner,
            EvictSink {
                global: &self.cache.evictions,
                scope: None,
            },
        );
    }
}

impl Drop for Flight<'_> {
    fn drop(&mut self) {
        if !self.settled {
            // Error path (or leader unwound): release waiters, cache
            // nothing.
            self.cache.calls.finish(
                &self.key,
                None,
                self.owner,
                EvictSink {
                    global: &self.cache.evictions,
                    scope: None,
                },
            );
        }
    }
}

/// The sharded single-flight call cache (see the module docs).
///
/// One instance lives per execution by default; with
/// [`CachePolicy::cross_run`] the same instance is installed into every
/// run of a [`crate::Wsmed`], so later queries reuse earlier answers.
pub struct CallCache {
    policy: CachePolicy,
    time_scale: f64,
    /// Memoized web service calls: `owf(args) → response value`.
    calls: Sharded<Value>,
    /// Memoized plan-function invocations: `digest(pf) ⊕ param → rows`.
    rows: Sharded<Arc<Vec<Tuple>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    dedup_waits: AtomicU64,
    evictions: AtomicU64,
    short_circuits: AtomicU64,
    cross_query_hits: AtomicU64,
    /// Runs currently using this cache. Counter resets and per-run
    /// entry clears happen only on the idle → busy edge, so overlapping
    /// runs share state instead of clobbering each other.
    active_runs: AtomicUsize,
}

impl CallCache {
    /// Creates a cache. `time_scale` (wall seconds per model second, as in
    /// [`wsmed_netsim::SimConfig`]) anchors the model-time TTL; at scale 0
    /// model time is unobservable and entries never expire.
    pub fn new(policy: CachePolicy, time_scale: f64) -> Self {
        CallCache {
            calls: Sharded::new(policy.shards, policy.capacity),
            rows: Sharded::new(policy.shards, policy.capacity),
            policy,
            time_scale,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            dedup_waits: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            short_circuits: AtomicU64::new(0),
            cross_query_hits: AtomicU64::new(0),
            active_runs: AtomicUsize::new(0),
        }
    }

    /// The policy this cache was built with.
    pub fn policy(&self) -> &CachePolicy {
        &self.policy
    }

    fn sink<'a>(&'a self, scope: Option<&'a CacheScope>) -> EvictSink<'a> {
        EvictSink {
            global: &self.evictions,
            scope: scope.map(|s| &s.evictions),
        }
    }

    /// Starts a run against this cache. On the idle → busy edge (no
    /// other run active) the busy-period counters reset and entries are
    /// cleared unless the policy is cross-run; runs overlapping an
    /// already-active run join the busy period and share its state —
    /// that sharing is what cross-query single-flight rides on. Pair
    /// with [`CallCache::end_run`].
    pub fn begin_run(&self) {
        if self.active_runs.fetch_add(1, Ordering::AcqRel) > 0 {
            return;
        }
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
        self.dedup_waits.store(0, Ordering::Relaxed);
        self.evictions.store(0, Ordering::Relaxed);
        self.short_circuits.store(0, Ordering::Relaxed);
        self.cross_query_hits.store(0, Ordering::Relaxed);
        if !self.policy.cross_run {
            self.calls.clear();
            self.rows.clear();
        }
    }

    /// Marks one run as finished with this cache (the busy period ends
    /// when every overlapping run has).
    pub fn end_run(&self) {
        // Tolerate historical callers that paired begin_run with nothing.
        let _ = self
            .active_runs
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |v| v.checked_sub(1));
    }

    /// Looks a call key up, blocking the calling thread on an identical
    /// in-flight call when single-flight is enabled. The caller loops on
    /// [`CallLookup::Retry`] (each retry is preceded by a real failed call,
    /// so the loop is bounded by the transport's own failure behaviour).
    pub fn lookup_call(&self, key: &CacheKey) -> CallLookup<'_> {
        match self.probe_call(key, None) {
            Ok(lookup) => lookup,
            Err(latch) => Self::waited(latch.wait()),
        }
    }

    /// [`CallCache::lookup_call`] for a query process, attributed to one
    /// query's scope: it awaits an in-flight call instead of blocking. The
    /// scope's counters are bumped alongside the cache-global ones, and
    /// hits on entries owned by a different query count as cross-query.
    pub(crate) async fn lookup_call_for<'a>(
        &'a self,
        key: &CacheKey,
        scope: Option<&CacheScope>,
    ) -> CallLookup<'a> {
        match self.probe_call(key, scope) {
            Ok(lookup) => lookup,
            Err(latch) => Self::waited(std::future::poll_fn(|cx| latch.poll_wait(cx)).await),
        }
    }

    /// A waiter's lookup once the leader settled (`None`: it failed).
    fn waited<'a>(outcome: Option<Value>) -> CallLookup<'a> {
        match outcome {
            Some(value) => CallLookup::Hit {
                value,
                waited: true,
            },
            None => CallLookup::Retry,
        }
    }

    /// The lookup, or — for a key in flight under single-flight — the
    /// latch to wait on. Counts it either way.
    fn probe_call<'a>(
        &'a self,
        key: &CacheKey,
        scope: Option<&CacheScope>,
    ) -> Result<CallLookup<'a>, Arc<Latch<Value>>> {
        let ttl = self.policy.ttl_model_secs;
        let query = scope.map_or(0, CacheScope::query);
        match self.calls.probe(
            key,
            self.policy.single_flight,
            ttl,
            self.time_scale,
            query,
            self.sink(scope),
        ) {
            Probe::Ready(value, owner) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                if let Some(scope) = scope {
                    scope.note_hit(owner);
                }
                if scope.is_some_and(|s| owner != s.query()) {
                    self.cross_query_hits.fetch_add(1, Ordering::Relaxed);
                }
                Ok(CallLookup::Hit {
                    value,
                    waited: false,
                })
            }
            Probe::Begin => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                if let Some(scope) = scope {
                    scope.misses.fetch_add(1, Ordering::Relaxed);
                }
                Ok(CallLookup::Miss(Flight {
                    cache: self,
                    key: key.clone(),
                    settled: false,
                    owner: query,
                }))
            }
            Probe::Wait(latch, leader) => {
                self.dedup_waits.fetch_add(1, Ordering::Relaxed);
                if let Some(scope) = scope {
                    scope.dedup_waits.fetch_add(1, Ordering::Relaxed);
                    if leader != scope.query() {
                        scope.cross_query_hits.fetch_add(1, Ordering::Relaxed);
                    }
                }
                if scope.is_some_and(|s| leader != s.query()) {
                    self.cross_query_hits.fetch_add(1, Ordering::Relaxed);
                }
                Err(latch)
            }
        }
    }

    /// Memoized result rows of a plan-function invocation, if present
    /// (non-blocking — dedup-aware dispatch never waits on a child).
    /// A hit on another query's memoized rows counts as cross-query on
    /// both the scope and the cache.
    pub(crate) fn peek_rows(
        &self,
        key: &CacheKey,
        scope: Option<&CacheScope>,
    ) -> Option<Arc<Vec<Tuple>>> {
        let (rows, owner) = self.rows.get(
            key,
            self.policy.ttl_model_secs,
            self.time_scale,
            self.sink(scope),
        )?;
        if let Some(scope) = scope {
            if owner != scope.query() {
                scope.cross_query_hits.fetch_add(1, Ordering::Relaxed);
                self.cross_query_hits.fetch_add(1, Ordering::Relaxed);
            }
        }
        Some(rows)
    }

    /// Records the result rows of one plan-function invocation.
    pub(crate) fn insert_rows(
        &self,
        key: &CacheKey,
        rows: Arc<Vec<Tuple>>,
        scope: Option<&CacheScope>,
    ) {
        let owner = scope.map_or(0, CacheScope::query);
        self.rows.insert(key, rows, owner, self.sink(scope));
    }

    /// Counts parameter tuples answered parent-side by dedup-aware
    /// dispatch.
    pub(crate) fn note_short_circuits(&self, n: u64, scope: Option<&CacheScope>) {
        self.short_circuits.fetch_add(n, Ordering::Relaxed);
        if let Some(scope) = scope {
            scope.short_circuits.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Entries currently resident (completed calls + memoized rows).
    pub fn ready_entries(&self) -> usize {
        self.calls.ready_entries() + self.rows.ready_entries()
    }

    /// Snapshot of the busy-period counters (since the last idle → busy
    /// edge; equals per-run counters for sequential callers).
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            dedup_waits: self.dedup_waits.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            short_circuits: self.short_circuits.load(Ordering::Relaxed),
            cross_query_hits: self.cross_query_hits.load(Ordering::Relaxed),
            entries: self.ready_entries() as u64,
        }
    }
}

impl std::fmt::Debug for CallCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CallCache")
            .field("policy", &self.policy)
            .field("entries", &self.ready_entries())
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::block_on;

    fn key(owf: &str, n: i64) -> CacheKey {
        CacheKey::for_call(owf, &[Value::Int(n)])
    }

    fn complete_miss(cache: &CallCache, k: &CacheKey, v: Value) {
        match cache.lookup_call(k) {
            CallLookup::Miss(flight) => flight.complete(&v),
            _ => panic!("expected a miss"),
        }
    }

    #[test]
    fn hit_after_complete_miss() {
        let cache = CallCache::new(CachePolicy::default(), 0.0);
        complete_miss(&cache, &key("F", 1), Value::Int(10));
        match cache.lookup_call(&key("F", 1)) {
            CallLookup::Hit { value: v, .. } => assert_eq!(v, Value::Int(10)),
            _ => panic!("expected a hit"),
        }
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
        assert_eq!(stats.hit_rate(), Some(0.5));
    }

    #[test]
    fn distinct_args_are_distinct_keys() {
        let cache = CallCache::new(CachePolicy::default(), 0.0);
        complete_miss(&cache, &key("F", 1), Value::Int(10));
        assert!(matches!(
            cache.lookup_call(&key("F", 2)),
            CallLookup::Miss(_)
        ));
        assert!(matches!(
            cache.lookup_call(&CacheKey::for_call("G", &[Value::Int(1)])),
            CallLookup::Miss(_)
        ));
    }

    #[test]
    fn dropped_flight_releases_and_caches_nothing() {
        let cache = CallCache::new(CachePolicy::default(), 0.0);
        match cache.lookup_call(&key("F", 1)) {
            CallLookup::Miss(flight) => drop(flight), // error path
            _ => panic!("expected a miss"),
        }
        // The key is cold again — a new leader can begin.
        assert!(matches!(
            cache.lookup_call(&key("F", 1)),
            CallLookup::Miss(_)
        ));
        assert_eq!(cache.stats().entries, 0);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let policy = CachePolicy {
            capacity: 2,
            shards: 1,
            ..Default::default()
        };
        let cache = CallCache::new(policy, 0.0);
        complete_miss(&cache, &key("F", 1), Value::Int(1));
        complete_miss(&cache, &key("F", 2), Value::Int(2));
        // Touch key 1 so key 2 is the LRU victim.
        assert!(matches!(
            cache.lookup_call(&key("F", 1)),
            CallLookup::Hit { .. }
        ));
        complete_miss(&cache, &key("F", 3), Value::Int(3));
        assert!(matches!(
            cache.lookup_call(&key("F", 1)),
            CallLookup::Hit { .. }
        ));
        assert!(matches!(
            cache.lookup_call(&key("F", 3)),
            CallLookup::Hit { .. }
        ));
        assert!(matches!(
            cache.lookup_call(&key("F", 2)),
            CallLookup::Miss(_)
        ));
        assert!(cache.stats().evictions >= 1);
    }

    #[test]
    fn ttl_expires_in_model_time() {
        // 1 model second at scale 0.001 = 1 ms of wall time.
        let policy = CachePolicy {
            ttl_model_secs: Some(1.0),
            ..Default::default()
        };
        let cache = CallCache::new(policy, 0.001);
        complete_miss(&cache, &key("F", 1), Value::Int(1));
        assert!(matches!(
            cache.lookup_call(&key("F", 1)),
            CallLookup::Hit { .. }
        ));
        std::thread::sleep(Duration::from_millis(10));
        assert!(matches!(
            cache.lookup_call(&key("F", 1)),
            CallLookup::Miss(_)
        ));
    }

    #[test]
    fn ttl_ignored_at_zero_time_scale() {
        let policy = CachePolicy {
            ttl_model_secs: Some(0.0001),
            ..Default::default()
        };
        let cache = CallCache::new(policy, 0.0);
        complete_miss(&cache, &key("F", 1), Value::Int(1));
        std::thread::sleep(Duration::from_millis(5));
        assert!(matches!(
            cache.lookup_call(&key("F", 1)),
            CallLookup::Hit { .. }
        ));
    }

    #[test]
    fn begin_run_resets_stats_and_clears_per_run_entries() {
        let cache = CallCache::new(CachePolicy::default(), 0.0);
        complete_miss(&cache, &key("F", 1), Value::Int(1));
        cache.begin_run();
        assert_eq!(cache.stats(), CacheStats::default());
        assert!(matches!(
            cache.lookup_call(&key("F", 1)),
            CallLookup::Miss(_)
        ));
    }

    #[test]
    fn begin_run_keeps_cross_run_entries() {
        let cache = CallCache::new(CachePolicy::cross_run(), 0.0);
        complete_miss(&cache, &key("F", 1), Value::Int(1));
        cache.begin_run();
        assert!(matches!(
            cache.lookup_call(&key("F", 1)),
            CallLookup::Hit { .. }
        ));
        assert_eq!(cache.stats().hits, 1, "stats still reset per run");
    }

    #[test]
    fn single_flight_disabled_never_waits() {
        let policy = CachePolicy {
            single_flight: false,
            ..Default::default()
        };
        let cache = CallCache::new(policy, 0.0);
        // Two concurrent "misses" on one key are both told to call.
        let first = cache.lookup_call(&key("F", 1));
        let second = cache.lookup_call(&key("F", 1));
        assert!(matches!(first, CallLookup::Miss(_)));
        assert!(matches!(second, CallLookup::Miss(_)));
    }

    #[test]
    fn single_flight_waiters_get_leader_value() {
        let cache = Arc::new(CallCache::new(CachePolicy::default(), 0.0));
        let k = key("F", 7);
        let CallLookup::Miss(flight) = cache.lookup_call(&k) else {
            panic!("leader must miss");
        };
        let mut waiters = Vec::new();
        for _ in 0..4 {
            let cache = Arc::clone(&cache);
            let k = k.clone();
            waiters.push(std::thread::spawn(move || match cache.lookup_call(&k) {
                CallLookup::Hit { value: v, .. } => v,
                _ => panic!("waiter must resolve to the leader's value"),
            }));
        }
        // Give the waiters time to park on the latch.
        std::thread::sleep(Duration::from_millis(30));
        flight.complete(&Value::Int(77));
        for w in waiters {
            assert_eq!(w.join().unwrap(), Value::Int(77));
        }
        let stats = cache.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.dedup_waits, 4);
    }

    #[test]
    fn failed_leader_sends_waiters_into_retry() {
        let cache = Arc::new(CallCache::new(CachePolicy::default(), 0.0));
        let k = key("F", 9);
        let CallLookup::Miss(flight) = cache.lookup_call(&k) else {
            panic!("leader must miss");
        };
        let waiter = {
            let cache = Arc::clone(&cache);
            let k = k.clone();
            std::thread::spawn(move || matches!(cache.lookup_call(&k), CallLookup::Retry))
        };
        std::thread::sleep(Duration::from_millis(30));
        drop(flight); // leader's call failed
        assert!(waiter.join().unwrap(), "waiter must be told to retry");
    }

    #[test]
    fn rows_memo_round_trips() {
        let cache = CallCache::new(CachePolicy::default(), 0.0);
        let param = crate::wire::encode_tuple(&Tuple::new(vec![Value::Int(5)]));
        let k = CacheKey::for_rows("pf:PF1:10:abcd", &param);
        assert!(cache.peek_rows(&k, None).is_none());
        let rows = Arc::new(vec![Tuple::new(vec![Value::str("a")])]);
        cache.insert_rows(&k, Arc::clone(&rows), None);
        assert_eq!(cache.peek_rows(&k, None).as_deref(), Some(rows.as_ref()));
    }

    #[test]
    fn scoped_lookups_attribute_cross_query_hits() {
        let cache = CallCache::new(CachePolicy::default(), 0.0);
        let a = CacheScope::new(1);
        let b = CacheScope::new(2);
        // Query 1 produces the entry.
        match block_on(cache.lookup_call_for(&key("F", 1), Some(&a))) {
            CallLookup::Miss(flight) => flight.complete(&Value::Int(10)),
            _ => panic!("expected a miss"),
        }
        // Query 1 re-reading its own entry is a plain hit.
        assert!(matches!(
            block_on(cache.lookup_call_for(&key("F", 1), Some(&a))),
            CallLookup::Hit { .. }
        ));
        // Query 2 reading query 1's entry is a cross-query hit.
        assert!(matches!(
            block_on(cache.lookup_call_for(&key("F", 1), Some(&b))),
            CallLookup::Hit { .. }
        ));
        let sa = a.snapshot(0);
        let sb = b.snapshot(0);
        assert_eq!((sa.misses, sa.hits, sa.cross_query_hits), (1, 1, 0));
        assert_eq!((sb.misses, sb.hits, sb.cross_query_hits), (0, 1, 1));
        assert_eq!(cache.stats().cross_query_hits, 1);
        // Scope sums equal the cache-global counters.
        let total = cache.stats();
        assert_eq!(sa.hits + sb.hits, total.hits);
        assert_eq!(sa.misses + sb.misses, total.misses);
    }

    #[test]
    fn rows_memo_attributes_cross_query_reads() {
        let cache = CallCache::new(CachePolicy::default(), 0.0);
        let a = CacheScope::new(7);
        let b = CacheScope::new(8);
        let param = crate::wire::encode_tuple(&Tuple::new(vec![Value::Int(5)]));
        let k = CacheKey::for_rows("pf:PF1:10:abcd", &param);
        let rows = Arc::new(vec![Tuple::new(vec![Value::str("a")])]);
        cache.insert_rows(&k, rows, Some(&a));
        assert!(cache.peek_rows(&k, Some(&a)).is_some());
        assert_eq!(a.snapshot(0).cross_query_hits, 0);
        assert!(cache.peek_rows(&k, Some(&b)).is_some());
        assert_eq!(b.snapshot(0).cross_query_hits, 1);
    }

    #[test]
    fn overlapping_runs_share_one_busy_period() {
        let cache = CallCache::new(CachePolicy::default(), 0.0);
        cache.begin_run();
        complete_miss(&cache, &key("F", 1), Value::Int(1));
        // A second overlapping run neither clears entries nor counters.
        cache.begin_run();
        assert!(matches!(
            cache.lookup_call(&key("F", 1)),
            CallLookup::Hit { .. }
        ));
        assert_eq!(cache.stats().misses, 1);
        cache.end_run();
        cache.end_run();
        // Idle again: the next run starts a fresh busy period.
        cache.begin_run();
        assert_eq!(cache.stats(), CacheStats::default());
        assert!(matches!(
            cache.lookup_call(&key("F", 1)),
            CallLookup::Miss(_)
        ));
        cache.end_run();
        // Unbalanced historical callers saturate at zero.
        cache.end_run();
        cache.begin_run();
        cache.end_run();
    }

    #[test]
    fn pf_digest_separates_bodies_and_names() {
        let a = pf_digest("PF1", b"body-a");
        let b = pf_digest("PF1", b"body-b");
        let c = pf_digest("PF2", b"body-a");
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, pf_digest("PF1", b"body-a"));
    }
}
