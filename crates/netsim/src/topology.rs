//! Replicated provider topology: replica groups and scripted membership
//! scenarios.
//!
//! The paper's §V argument — an interior optimum fanout exists because
//! server capacity is finite — assumes a *static* provider. This module
//! makes the provider side elastic so the adaptive controller can be shown
//! to track a **moving** optimum: a [`ReplicaGroup`] fronts N real
//! [`Provider`]s (each with its own capacity, latency model, and
//! [`FaultSpec`]), and a [`TopologyScenario`] scripts membership changes
//! against **model time** — replica leave/rejoin at scheduled instants and
//! rolling brownouts sweeping across replicas.
//!
//! Design contract:
//!
//! * **Replica 0 is the original provider.** [`crate::Network::replicate`]
//!   wraps the already-registered provider as the first replica, so a
//!   caller that never consults the group (no router installed) keeps the
//!   exact historical single-provider behaviour, bit for bit.
//! * **Deterministic.** Scenario events fire when the caller-supplied
//!   model clock passes their scheduled instant ([`ReplicaGroup::poll`]);
//!   nothing here reads wall time or draws randomness, so same-seed runs
//!   replay identical membership histories at any time scale.
//! * **Graceful drain.** A departed replica stays registered on the
//!   network and finishes its in-flight calls; `Leave` only removes it
//!   from the routable set. `Rejoin` restores it with its metrics and
//!   model clock intact — exactly the "replica returns" case the
//!   moving-optimum experiment needs.

use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use crate::{FaultSpec, Provider};

/// One replica's routable state inside a [`ReplicaGroup`].
#[derive(Debug)]
struct Slot {
    provider: Arc<Provider>,
    /// Routable right now. Inactive replicas drain: in-flight calls
    /// complete, new routed calls go elsewhere.
    active: bool,
}

/// A point-in-time view of one replica, for routers, shells, and tests.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplicaStatus {
    /// The replica's provider name (unique on the network).
    pub replica: String,
    /// Whether the replica is currently routable.
    pub active: bool,
    /// The replica's full-speed concurrency capacity.
    pub capacity: usize,
    /// Calls in flight at the replica right now.
    pub in_flight: usize,
}

/// A membership transition observed by [`ReplicaGroup::poll`] or a direct
/// leave/rejoin call. Routers turn these into trace events.
#[derive(Debug, Clone, PartialEq)]
pub struct MembershipChange {
    /// The logical group name.
    pub group: String,
    /// The replica that changed state.
    pub replica: String,
    /// `true` when the replica became routable, `false` when it left.
    pub joined: bool,
}

/// One scripted topology action.
#[derive(Debug, Clone, PartialEq)]
pub enum TopologyAction {
    /// Remove the replica from the routable set (graceful drain).
    Leave {
        /// Replica provider name.
        replica: String,
    },
    /// Restore a departed replica to the routable set.
    Rejoin {
        /// Replica provider name.
        replica: String,
    },
    /// Slow the replica down: merge a brownout window of the given length
    /// and latency factor into its installed [`FaultSpec`], starting at
    /// the replica's model clock when the event fires.
    Brownout {
        /// Replica provider name.
        replica: String,
        /// Window length on the replica's model clock, model seconds.
        for_model_secs: f64,
        /// Latency multiplier inside the window (≥ 1 slows it down).
        factor: f64,
    },
}

/// One scenario event: an action scheduled at a model-time instant.
#[derive(Debug, Clone, PartialEq)]
pub struct TopologyEvent {
    /// Model time (on the clock passed to [`ReplicaGroup::poll`]) at or
    /// after which the action fires.
    pub at_model_secs: f64,
    /// What happens.
    pub action: TopologyAction,
}

/// A deterministic membership script for one [`ReplicaGroup`]. Events are
/// applied in schedule order as the model clock passes them; the script
/// never reads wall time, so same-seed runs replay identically.
#[derive(Debug, Clone, PartialEq)]
pub struct TopologyScenario {
    /// Scenario name (surfaced by the shell's `topology scenario`).
    pub name: String,
    /// The scheduled events. Sorted by [`TopologyEvent::at_model_secs`]
    /// on install; ties fire in listed order.
    pub events: Vec<TopologyEvent>,
}

impl TopologyScenario {
    /// An empty scenario with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        TopologyScenario {
            name: name.into(),
            events: Vec::new(),
        }
    }

    /// Builder-style: schedules `action` at model time `at`.
    #[must_use]
    pub fn at(mut self, at: f64, action: TopologyAction) -> Self {
        self.events.push(TopologyEvent {
            at_model_secs: at,
            action,
        });
        self
    }

    /// The moving-optimum flap: `replica` leaves at `leave_at` and rejoins
    /// at `rejoin_at` (the "replica returns at t₂" script).
    pub fn flap(replica: &str, leave_at: f64, rejoin_at: f64) -> Self {
        TopologyScenario::new(format!("flap({replica})"))
            .at(
                leave_at,
                TopologyAction::Leave {
                    replica: replica.to_owned(),
                },
            )
            .at(
                rejoin_at,
                TopologyAction::Rejoin {
                    replica: replica.to_owned(),
                },
            )
    }

    /// A rolling brownout: starting at `start`, each replica in turn is
    /// browned out for `dur` model seconds at the given latency factor,
    /// staggered by `stagger` so the slowdown sweeps across the group.
    pub fn rolling_brownout(
        replicas: &[String],
        start: f64,
        stagger: f64,
        dur: f64,
        factor: f64,
    ) -> Self {
        let mut s = TopologyScenario::new("rolling_brownout");
        for (i, replica) in replicas.iter().enumerate() {
            s = s.at(
                start + stagger * i as f64,
                TopologyAction::Brownout {
                    replica: replica.clone(),
                    for_model_secs: dur,
                    factor,
                },
            );
        }
        s
    }
}

#[derive(Debug)]
struct ScenarioState {
    scenario: TopologyScenario,
    next: usize,
}

/// A logical provider name fronting N replica [`Provider`]s. Created with
/// [`crate::Network::replicate`]; consumed by the client-side router.
#[derive(Debug)]
pub struct ReplicaGroup {
    name: String,
    slots: RwLock<Vec<Slot>>,
    scenario: Mutex<Option<ScenarioState>>,
}

impl ReplicaGroup {
    pub(crate) fn new(name: &str, replicas: Vec<Arc<Provider>>) -> Self {
        ReplicaGroup {
            name: name.to_owned(),
            slots: RwLock::new(
                replicas
                    .into_iter()
                    .map(|provider| Slot {
                        provider,
                        active: true,
                    })
                    .collect(),
            ),
            scenario: Mutex::new(None),
        }
    }

    /// The logical provider name (equals replica 0's provider name).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Total replicas, active or not.
    pub fn len(&self) -> usize {
        self.slots.read().len()
    }

    /// True when the group has no replicas (never the case for groups
    /// built by [`crate::Network::replicate`]).
    pub fn is_empty(&self) -> bool {
        self.slots.read().is_empty()
    }

    /// Currently routable replicas, in slot order. Empty when every
    /// replica has left — routers fall back to replica 0 then.
    pub fn active(&self) -> Vec<Arc<Provider>> {
        self.slots
            .read()
            .iter()
            .filter(|s| s.active)
            .map(|s| Arc::clone(&s.provider))
            .collect()
    }

    /// The primary (replica 0) — the provider the group was built around.
    pub fn primary(&self) -> Arc<Provider> {
        Arc::clone(&self.slots.read()[0].provider)
    }

    /// Looks up any replica (active or not) by provider name.
    pub fn replica(&self, name: &str) -> Option<Arc<Provider>> {
        self.slots
            .read()
            .iter()
            .find(|s| s.provider.name() == name)
            .map(|s| Arc::clone(&s.provider))
    }

    /// A point-in-time view of every replica, in slot order.
    pub fn status(&self) -> Vec<ReplicaStatus> {
        self.slots
            .read()
            .iter()
            .map(|s| ReplicaStatus {
                replica: s.provider.name().to_owned(),
                active: s.active,
                capacity: s.provider.capacity(),
                in_flight: s.provider.in_flight(),
            })
            .collect()
    }

    /// Sum of active replicas' capacities — the group-level effective
    /// capacity the cost-based planner should see.
    pub fn effective_capacity(&self) -> usize {
        self.slots
            .read()
            .iter()
            .filter(|s| s.active)
            .map(|s| s.provider.capacity())
            .sum()
    }

    fn transition(&self, replica: &str, active: bool) -> Option<MembershipChange> {
        let mut slots = self.slots.write();
        let slot = slots.iter_mut().find(|s| s.provider.name() == replica)?;
        if slot.active == active {
            return None;
        }
        slot.active = active;
        Some(MembershipChange {
            group: self.name.clone(),
            replica: replica.to_owned(),
            joined: active,
        })
    }

    /// Removes `replica` from the routable set (graceful drain: in-flight
    /// calls complete, the provider stays registered). Returns the change,
    /// or `None` when the replica is unknown or already inactive.
    pub fn leave(&self, replica: &str) -> Option<MembershipChange> {
        self.transition(replica, false)
    }

    /// Restores a departed `replica` to the routable set. Returns the
    /// change, or `None` when unknown or already active.
    pub fn rejoin(&self, replica: &str) -> Option<MembershipChange> {
        self.transition(replica, true)
    }

    /// Installs (replacing any previous) membership script. Events are
    /// sorted by schedule time; the script starts unfired.
    pub fn install_scenario(&self, mut scenario: TopologyScenario) {
        scenario
            .events
            .sort_by(|a, b| a.at_model_secs.total_cmp(&b.at_model_secs));
        *self.scenario.lock() = Some(ScenarioState { scenario, next: 0 });
    }

    /// Name of the installed scenario, if any.
    pub fn scenario_name(&self) -> Option<String> {
        self.scenario
            .lock()
            .as_ref()
            .map(|s| s.scenario.name.clone())
    }

    /// Applies every scenario event scheduled at or before model time
    /// `now`, in schedule order, and returns the membership changes that
    /// resulted (brownouts change latency, not membership). Riding the
    /// call path — routers poll before each selection — keeps scenario
    /// advancement deterministic in model time.
    pub fn poll(&self, now: f64) -> Vec<MembershipChange> {
        let mut due = Vec::new();
        {
            let mut guard = self.scenario.lock();
            if let Some(state) = guard.as_mut() {
                while state.next < state.scenario.events.len()
                    && state.scenario.events[state.next].at_model_secs <= now
                {
                    due.push(state.scenario.events[state.next].action.clone());
                    state.next += 1;
                }
            }
        }
        let mut changes = Vec::new();
        for action in due {
            match action {
                TopologyAction::Leave { replica } => changes.extend(self.leave(&replica)),
                TopologyAction::Rejoin { replica } => changes.extend(self.rejoin(&replica)),
                TopologyAction::Brownout {
                    replica,
                    for_model_secs,
                    factor,
                } => {
                    if let Some(p) = self.replica(&replica) {
                        // The brownout window lives on the replica's own
                        // model clock; merge it into the installed spec so
                        // scripted slowdowns compose with test chaos.
                        let start = p.model_time();
                        let mut spec: FaultSpec = p.fault();
                        spec.brownout_between.push((start, start + for_model_secs));
                        spec.brownout_factor = factor;
                        p.set_fault(spec);
                    }
                }
            }
        }
        changes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LatencyModel, Network, ProviderSpec, SimConfig};

    fn group_of(n: usize) -> (Arc<Network>, Arc<ReplicaGroup>) {
        let net = Network::new(SimConfig::default());
        net.register(ProviderSpec::new("svc", 2, LatencyModel::fixed(0.5)))
            .unwrap();
        let extras = (1..n)
            .map(|i| ProviderSpec::new(format!("svc#{i}"), 2, LatencyModel::fixed(0.5)))
            .collect();
        let group = net.replicate("svc", extras).unwrap();
        (net, group)
    }

    #[test]
    fn leave_and_rejoin_toggle_routability() {
        let (_net, group) = group_of(3);
        assert_eq!(group.len(), 3);
        assert_eq!(group.effective_capacity(), 6);

        let change = group.leave("svc#1").expect("leave changes membership");
        assert!(!change.joined);
        assert_eq!(change.replica, "svc#1");
        assert_eq!(group.effective_capacity(), 4);
        assert_eq!(group.active().len(), 2);
        // Leaving again is a no-op.
        assert!(group.leave("svc#1").is_none());
        assert!(group.leave("nope").is_none());

        let change = group.rejoin("svc#1").expect("rejoin changes membership");
        assert!(change.joined);
        assert_eq!(group.effective_capacity(), 6);
        assert!(group.rejoin("svc#1").is_none());
    }

    #[test]
    fn departed_replica_still_serves_in_flight_style_calls() {
        // Leave is a drain, not an outage: the provider object still works.
        let (net, group) = group_of(2);
        group.leave("svc#1").unwrap();
        let p = net.provider("svc#1").unwrap();
        let cfg = net.config().clone();
        assert!(p.call(&cfg, "Op", 0, || ((), 0)).is_ok());
        assert_eq!(group.active().len(), 1);
    }

    #[test]
    fn scenario_fires_events_in_model_time_order() {
        let (_net, group) = group_of(2);
        group.install_scenario(TopologyScenario::flap("svc#1", 10.0, 20.0));
        assert_eq!(group.scenario_name().as_deref(), Some("flap(svc#1)"));

        assert!(group.poll(9.9).is_empty());
        let changes = group.poll(10.0);
        assert_eq!(changes.len(), 1);
        assert!(!changes[0].joined);
        assert_eq!(group.active().len(), 1);
        // Events never refire.
        assert!(group.poll(15.0).is_empty());
        // A late poll catches up on everything due, in order.
        let changes = group.poll(50.0);
        assert_eq!(changes.len(), 1);
        assert!(changes[0].joined);
        assert_eq!(group.active().len(), 2);
    }

    #[test]
    fn scenario_replay_is_deterministic() {
        // Same scenario + same poll instants => identical change history.
        let run = || {
            let (_net, group) = group_of(3);
            group.install_scenario(
                TopologyScenario::new("mix")
                    .at(
                        5.0,
                        TopologyAction::Leave {
                            replica: "svc#2".into(),
                        },
                    )
                    .at(
                        1.0,
                        TopologyAction::Leave {
                            replica: "svc#1".into(),
                        },
                    )
                    .at(
                        8.0,
                        TopologyAction::Rejoin {
                            replica: "svc#1".into(),
                        },
                    ),
            );
            let mut history = Vec::new();
            for step in 0..12 {
                for c in group.poll(step as f64) {
                    history.push(format!("{}:{}:{}", step, c.replica, c.joined));
                }
            }
            history
        };
        let first = run();
        assert_eq!(
            first,
            vec!["1:svc#1:false", "5:svc#2:false", "8:svc#1:true"]
        );
        assert_eq!(first, run());
    }

    #[test]
    fn brownout_event_merges_window_into_installed_fault() {
        let (net, group) = group_of(2);
        // Pre-existing chaos must survive the scripted brownout.
        let p = net.provider("svc#1").unwrap();
        p.set_fault(FaultSpec {
            fail_first: 1,
            ..Default::default()
        });
        group.install_scenario(TopologyScenario::rolling_brownout(
            &["svc".into(), "svc#1".into()],
            0.0,
            5.0,
            30.0,
            8.0,
        ));
        let changes = group.poll(6.0);
        assert!(changes.is_empty(), "brownouts are not membership changes");
        let spec = p.fault();
        assert_eq!(spec.fail_first, 1);
        assert_eq!(spec.brownout_factor, 8.0);
        assert_eq!(spec.brownout_between.len(), 1);
        // First call at model clock 0 is inside the window: 0.5 * 8.
        let cfg = net.config().clone();
        let _ = p.call(&cfg, "Op", 0, || ((), 0)); // fail_first consumes call 1
        let (_, stats) = p.call(&cfg, "Op", 0, || ((), 0)).unwrap();
        assert!(stats.model_latency > 3.9, "{stats:?}");
    }

    #[test]
    fn status_reports_every_slot() {
        let (_net, group) = group_of(2);
        group.leave("svc#1").unwrap();
        let status = group.status();
        assert_eq!(status.len(), 2);
        assert!(status[0].active);
        assert_eq!(status[0].replica, "svc");
        assert!(!status[1].active);
        assert_eq!(status[1].capacity, 2);
        assert_eq!(status[1].in_flight, 0);
    }
}
