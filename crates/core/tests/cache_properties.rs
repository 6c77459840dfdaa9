//! Property tests of the call-cache subsystem: structural key equality
//! and single-flight value delivery under concurrent hammering.

use std::cmp::Ordering;
use std::sync::atomic::{AtomicUsize, Ordering as AtomicOrdering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use proptest::prelude::*;

use wsmed_core::{CacheKey, CachePolicy, CallCache, CallLookup};
use wsmed_store::{Record, Tuple, Value};

fn value_strategy() -> impl Strategy<Value = Value> {
    let leaf = prop_oneof![
        Just(Value::Null),
        "[ -~]{0,16}".prop_map(Value::from),
        any::<f64>().prop_map(Value::Real),
        any::<i64>().prop_map(Value::Int),
        any::<bool>().prop_map(Value::Bool),
    ];
    leaf.prop_recursive(2, 12, 3, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 0..3).prop_map(Value::Sequence),
            proptest::collection::vec(inner.clone(), 0..3).prop_map(Value::Bag),
            proptest::collection::vec(("[a-z]{1,6}", inner), 0..3).prop_map(|fields| {
                let mut r = Record::new();
                for (k, v) in fields {
                    r.set(k, v);
                }
                Value::Record(r)
            }),
        ]
    })
}

/// Resolves one key against the cache, acting as leader (completing with
/// `value`) on a miss and retrying after an aborted flight. The leader
/// holds its flight open until the `waiters` other threads queue on the
/// latch: a fixed pause would let a descheduled thread arrive after the
/// flight completed and hit instead.
fn resolve(
    cache: &CallCache,
    key: &CacheKey,
    value: &Value,
    leaders: &AtomicUsize,
    waiters: u64,
) -> Value {
    loop {
        match cache.lookup_call(key) {
            CallLookup::Hit { value: v, .. } => return v,
            CallLookup::Miss(flight) => {
                leaders.fetch_add(1, AtomicOrdering::Relaxed);
                let patience = Instant::now();
                while cache.stats().dedup_waits < waiters
                    && patience.elapsed() < Duration::from_secs(10)
                {
                    std::thread::sleep(Duration::from_micros(100));
                }
                flight.complete(value);
                return value.clone();
            }
            CallLookup::Retry => continue,
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    // `CacheKey` equality is exactly the structural equality of the
    // argument tuples under `total_cmp` — bit-exact reals, NaN equal to
    // itself — regardless of how the values were produced.
    #[test]
    fn prop_cache_key_equality_is_structural(
        a in proptest::collection::vec(value_strategy(), 0..5),
        b in proptest::collection::vec(value_strategy(), 0..5),
    ) {
        let ka = CacheKey::for_call("Op", &a);
        let kb = CacheKey::for_call("Op", &b);
        let structurally_equal =
            Tuple::new(a.clone()).total_cmp(&Tuple::new(b.clone())) == Ordering::Equal;
        prop_assert_eq!(ka == kb, structurally_equal);
        // Reflexivity holds even for NaN-bearing args (derived `==` on
        // `Value` would deny it).
        prop_assert_eq!(&CacheKey::for_call("Op", &a), &ka);
        // The OWF name is part of the key: same args, different operation,
        // different key.
        prop_assert_ne!(&CacheKey::for_call("OtherOp", &a), &ka);
    }

    // K threads race one cold key: exactly one leads (issues the "call"),
    // every thread receives a value structurally identical to the
    // leader's.
    #[test]
    fn prop_single_flight_delivers_leader_value_to_all(
        value in value_strategy(),
        k in 2usize..6,
    ) {
        let cache = Arc::new(CallCache::new(CachePolicy::default(), 0.0));
        let key = CacheKey::for_call("Op", &[Value::Int(7)]);
        let leaders = AtomicUsize::new(0);
        let barrier = Barrier::new(k);
        let results: Vec<Value> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..k)
                .map(|_| {
                    let cache = Arc::clone(&cache);
                    let key = key.clone();
                    let value = value.clone();
                    let (barrier, leaders) = (&barrier, &leaders);
                    s.spawn(move || {
                        barrier.wait();
                        resolve(&cache, &key, &value, leaders, k as u64 - 1)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        prop_assert_eq!(leaders.load(AtomicOrdering::Relaxed), 1, "exactly one leader");
        for r in &results {
            prop_assert_eq!(
                Tuple::new(vec![r.clone()]).total_cmp(&Tuple::new(vec![value.clone()])),
                Ordering::Equal,
                "waiter saw a different value"
            );
        }
        let stats = cache.stats();
        prop_assert_eq!(stats.misses, 1);
        prop_assert_eq!(stats.dedup_waits as usize, k - 1);
    }

    // LRU eviction keeps the resident set within the configured capacity
    // (up to per-shard rounding) no matter how many inserts happen.
    #[test]
    fn prop_capacity_bounds_resident_entries(
        capacity in 1usize..32,
        shards in 1usize..8,
        n in 0usize..128,
    ) {
        let policy = CachePolicy { capacity, shards, ..CachePolicy::default() };
        let cache = CallCache::new(policy, 0.0);
        for i in 0..n {
            let key = CacheKey::for_call("Op", &[Value::Int(i as i64)]);
            if let CallLookup::Miss(flight) = cache.lookup_call(&key) {
                flight.complete(&Value::Int(i as i64));
            }
        }
        // Capacity splits across shards rounding up, so the worst case is
        // ceil(capacity/shards) entries in every shard.
        prop_assert!(cache.ready_entries() <= capacity.div_ceil(shards) * shards);
    }
}
