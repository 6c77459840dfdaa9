//! Client-side replica routing for elastic provider topologies.
//!
//! When a logical provider is scaled out into a [`wsmed_netsim::ReplicaGroup`],
//! the mediator — not the network — decides which replica serves each call.
//! The router sits between the resilience layer and the transport: retries,
//! hedges and circuit breakers become *per-replica* concerns (an open breaker
//! on one replica fails over instead of shedding the whole group), while the
//! planner keeps seeing one logical provider with the group's pooled capacity.
//!
//! Every policy is deterministic: selection depends only on the group view,
//! the policy's own per-group sequence counter and (for [`RouterPolicy::
//! Random`]) the seeded model RNG — never on wall time — so identically
//! seeded runs route identically.

use std::collections::HashMap;

use parking_lot::Mutex;

use wsmed_netsim::{DetRng, MembershipChange};

use crate::stats::sorted_entry;

/// How the mediator spreads calls across the replicas of a group.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RouterPolicy {
    /// Capacity-weighted deterministic round-robin: a replica with twice
    /// the capacity receives twice the turns.
    #[default]
    Weighted,
    /// The replica with the fewest in-flight calls at selection time
    /// (ties break toward the lowest slot index) — the classic
    /// join-shortest-queue heuristic, which tracks heterogeneous and
    /// degraded replicas without knowing *why* they are slow.
    LeastInFlight,
    /// The fastest (lowest expected latency) replica until it saturates,
    /// then spill to the next fastest — a locality/affinity policy.
    LocalityAware,
    /// Uniform seeded-random choice. The ablation baseline the informed
    /// policies are measured against; not exposed through the shell.
    Random,
}

impl RouterPolicy {
    /// Stable lower-case name (shell output, bench config labels).
    pub fn name(&self) -> &'static str {
        match self {
            RouterPolicy::Weighted => "weighted",
            RouterPolicy::LeastInFlight => "least-in-flight",
            RouterPolicy::LocalityAware => "locality-aware",
            RouterPolicy::Random => "random",
        }
    }
}

/// A point-in-time, routable view of one replica group, built by the
/// transport (which owns the topology) for the router (which owns the
/// choice). `changes` carries any membership events the topology scenario
/// applied while building the view, so the caller can trace and count them.
#[derive(Debug, Clone)]
pub struct GroupView {
    /// Logical provider (group) name.
    pub group: String,
    /// Routable (active) replicas, in slot order.
    pub replicas: Vec<ReplicaView>,
    /// Membership events applied while this view was built.
    pub changes: Vec<MembershipChange>,
}

/// One routable replica inside a [`GroupView`].
#[derive(Debug, Clone)]
pub struct ReplicaView {
    /// Unique provider name of the replica (`"{group}"` for replica 0,
    /// `"{group}#i"` for scale-out replicas).
    pub name: String,
    /// Calls currently executing on the replica.
    pub in_flight: usize,
    /// Concurrent calls the replica serves at full speed.
    pub capacity: usize,
    /// Expected per-call model latency at nominal sizes.
    pub latency_secs: f64,
}

/// Per-run routing counters, surfaced on
/// [`crate::ExecutionReport::router`]. All zero — [`RouterStats::is_quiet`]
/// — when no router is installed or no call touched a replica group.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RouterStats {
    /// Routing decisions made (one per routed call attempt).
    pub decisions: u64,
    /// Attempts rerouted to a different replica because the selected
    /// replica's breaker rejected it.
    pub failovers: u64,
    /// Hedged backup calls sent to a *different* replica than the primary.
    pub hedge_reroutes: u64,
    /// Replica join/leave events observed while routing (topology
    /// scenarios).
    pub membership_events: u64,
    /// Routed call attempts per `(group, replica)`, sorted by key.
    pub per_replica: Vec<((String, String), u64)>,
}

impl RouterStats {
    /// True when nothing was routed (single-provider topologies).
    pub fn is_quiet(&self) -> bool {
        self.decisions == 0
            && self.failovers == 0
            && self.hedge_reroutes == 0
            && self.membership_events == 0
            && self.per_replica.is_empty()
    }
}

/// Run-scoped routing counters: the [`RouterStats`] report itself, written
/// in place under one lock.
#[derive(Debug, Default)]
pub(crate) struct RouterCollector(Mutex<RouterStats>);

impl RouterCollector {
    pub(crate) fn note_decision(&self, group: &str, replica: &str) {
        let mut stats = self.0.lock();
        stats.decisions += 1;
        let key = (group.to_owned(), replica.to_owned());
        *sorted_entry(&mut stats.per_replica, key) += 1;
    }

    pub(crate) fn note_failover(&self) {
        self.0.lock().failovers += 1;
    }

    pub(crate) fn note_hedge_reroute(&self) {
        self.0.lock().hedge_reroutes += 1;
    }

    pub(crate) fn note_membership(&self) {
        self.0.lock().membership_events += 1;
    }

    pub(crate) fn snapshot(&self) -> RouterStats {
        self.0.lock().clone()
    }
}

/// The deterministic replica selector. One instance per mediator; its only
/// mutable state is a per-group sequence counter (round-robin position /
/// random-stream index), so concurrent queries share a coherent rotation.
#[derive(Debug)]
pub(crate) struct Router {
    policy: RouterPolicy,
    seed: u64,
    seqs: Mutex<HashMap<String, u64>>,
}

impl Router {
    pub(crate) fn new(policy: RouterPolicy, seed: u64) -> Self {
        Router {
            policy,
            seed,
            seqs: Mutex::new(HashMap::new()),
        }
    }

    pub(crate) fn policy(&self) -> RouterPolicy {
        self.policy
    }

    fn next_seq(&self, group: &str) -> u64 {
        let mut seqs = self.seqs.lock();
        let seq = seqs.entry(group.to_owned()).or_insert(0);
        let current = *seq;
        *seq += 1;
        current
    }

    /// Picks a replica from the view, never one named in `exclude`
    /// (replicas that already failed or were rejected for this logical
    /// call). `None` when the exclusions cover every routable replica.
    pub(crate) fn select(&self, view: &GroupView, exclude: &[&str]) -> Option<String> {
        let candidates: Vec<&ReplicaView> = view
            .replicas
            .iter()
            .filter(|r| !exclude.contains(&r.name.as_str()))
            .collect();
        if candidates.is_empty() {
            return None;
        }
        let chosen = match self.policy {
            RouterPolicy::Weighted => {
                // Deterministic weighted round-robin: lay the candidates'
                // capacities end to end and walk the strip one slot per
                // decision.
                let total: u64 = candidates.iter().map(|r| r.capacity.max(1) as u64).sum();
                let mut slot = self.next_seq(&view.group) % total;
                let mut pick = candidates[0];
                for r in &candidates {
                    let weight = r.capacity.max(1) as u64;
                    if slot < weight {
                        pick = r;
                        break;
                    }
                    slot -= weight;
                }
                pick
            }
            RouterPolicy::LeastInFlight => candidates
                .iter()
                .min_by_key(|r| r.in_flight)
                .expect("candidates checked non-empty"),
            RouterPolicy::LocalityAware => {
                // Fastest replica with headroom; when everything is at
                // capacity, fall back to the fastest outright.
                let mut by_latency = candidates.clone();
                by_latency.sort_by(|a, b| a.latency_secs.total_cmp(&b.latency_secs));
                by_latency
                    .iter()
                    .find(|r| r.in_flight < r.capacity.max(1))
                    .copied()
                    .unwrap_or(by_latency[0])
            }
            RouterPolicy::Random => {
                let seq = self.next_seq(&view.group);
                let roll =
                    DetRng::keyed(self.seed, &format!("router/{}", view.group), seq).next_f64();
                let idx = ((roll * candidates.len() as f64) as usize).min(candidates.len() - 1);
                candidates[idx]
            }
        };
        Some(chosen.name.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view(replicas: &[(&str, usize, usize, f64)]) -> GroupView {
        GroupView {
            group: "svc".into(),
            replicas: replicas
                .iter()
                .map(|&(name, in_flight, capacity, latency_secs)| ReplicaView {
                    name: name.into(),
                    in_flight,
                    capacity,
                    latency_secs,
                })
                .collect(),
            changes: Vec::new(),
        }
    }

    #[test]
    fn weighted_follows_capacity_ratios() {
        let router = Router::new(RouterPolicy::Weighted, 1);
        let v = view(&[("svc", 0, 1, 0.5), ("svc#1", 0, 3, 0.5)]);
        let picks: Vec<String> = (0..8).map(|_| router.select(&v, &[]).unwrap()).collect();
        let heavy = picks.iter().filter(|p| *p == "svc#1").count();
        assert_eq!(heavy, 6, "3:1 capacity split over 8 turns: {picks:?}");
    }

    #[test]
    fn least_in_flight_picks_idle_replica_and_breaks_ties_low() {
        let router = Router::new(RouterPolicy::LeastInFlight, 1);
        let v = view(&[
            ("svc", 2, 4, 0.5),
            ("svc#1", 0, 4, 0.5),
            ("svc#2", 0, 4, 0.5),
        ]);
        assert_eq!(router.select(&v, &[]).unwrap(), "svc#1");
        let all_equal = view(&[("svc", 1, 4, 0.5), ("svc#1", 1, 4, 0.5)]);
        assert_eq!(router.select(&all_equal, &[]).unwrap(), "svc");
    }

    #[test]
    fn locality_prefers_fast_replica_until_saturated() {
        let router = Router::new(RouterPolicy::LocalityAware, 1);
        let idle = view(&[("svc", 0, 2, 0.9), ("svc#1", 0, 2, 0.2)]);
        assert_eq!(router.select(&idle, &[]).unwrap(), "svc#1");
        let fast_full = view(&[("svc", 0, 2, 0.9), ("svc#1", 2, 2, 0.2)]);
        assert_eq!(router.select(&fast_full, &[]).unwrap(), "svc");
        let all_full = view(&[("svc", 2, 2, 0.9), ("svc#1", 2, 2, 0.2)]);
        assert_eq!(router.select(&all_full, &[]).unwrap(), "svc#1");
    }

    #[test]
    fn random_is_seed_deterministic() {
        let a = Router::new(RouterPolicy::Random, 42);
        let b = Router::new(RouterPolicy::Random, 42);
        let v = view(&[
            ("svc", 0, 2, 0.5),
            ("svc#1", 0, 2, 0.5),
            ("svc#2", 0, 2, 0.5),
        ]);
        let pa: Vec<String> = (0..16).map(|_| a.select(&v, &[]).unwrap()).collect();
        let pb: Vec<String> = (0..16).map(|_| b.select(&v, &[]).unwrap()).collect();
        assert_eq!(pa, pb);
        // And it actually spreads across replicas.
        assert!(pa.iter().any(|p| p != &pa[0]), "all 16 picks identical");
    }

    #[test]
    fn exclusions_are_honored_and_exhaustion_returns_none() {
        let router = Router::new(RouterPolicy::LeastInFlight, 1);
        let v = view(&[("svc", 0, 2, 0.5), ("svc#1", 1, 2, 0.5)]);
        assert_eq!(router.select(&v, &["svc"]).unwrap(), "svc#1");
        assert_eq!(router.select(&v, &["svc", "svc#1"]), None);
    }

    #[test]
    fn collector_counts() {
        let c = RouterCollector::default();
        c.note_decision("g", "g");
        c.note_decision("g", "g#1");
        c.note_decision("g", "g#1");
        c.note_failover();
        c.note_hedge_reroute();
        c.note_membership();
        let s = c.snapshot();
        assert_eq!(s.decisions, 3);
        assert_eq!(s.failovers, 1);
        assert_eq!(s.hedge_reroutes, 1);
        assert_eq!(s.membership_events, 1);
        assert_eq!(
            s.per_replica,
            vec![
                (("g".to_owned(), "g".to_owned()), 1),
                (("g".to_owned(), "g#1".to_owned()), 2),
            ]
        );
        assert!(!s.is_quiet());
        assert!(RouterCollector::default().snapshot().is_quiet());
    }
}
