//! The simulated network: a registry of providers plus global config.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use parking_lot::RwLock;

use crate::{MetricsSnapshot, Provider, ProviderSpec, ReplicaGroup, SimConfig};

/// Result alias for network operations.
pub type NetResult<T> = Result<T, NetError>;

/// Errors surfaced by the simulated network.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetError {
    /// No provider registered under the given name.
    UnknownProvider(String),
    /// A provider (or replica group) with this name already exists.
    /// Replica join/leave made re-registration a real path, so a silent
    /// overwrite would orphan live `Arc<Provider>` handles mid-drain.
    DuplicateProvider(String),
    /// The provider knows no such operation (raised by the services layer).
    UnknownOperation {
        /// Provider that rejected the call.
        provider: String,
        /// The unknown operation name.
        operation: String,
    },
    /// An injected fault made this call fail.
    ServiceFault {
        /// Provider that failed.
        provider: String,
        /// Operation being invoked.
        operation: String,
        /// 1-based call sequence number at the provider.
        call_seq: u64,
    },
    /// The request payload was malformed (services layer).
    BadRequest {
        /// Provider reporting the problem.
        provider: String,
        /// Description of what was wrong.
        message: String,
    },
    /// The call's model latency exceeded the caller's deadline (a hang or
    /// a slow call under a per-call deadline). The caller was charged
    /// exactly the deadline in model time.
    Timeout {
        /// Provider whose call timed out.
        provider: String,
        /// Operation being invoked.
        operation: String,
        /// 1-based call sequence number at the provider.
        call_seq: u64,
    },
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::UnknownProvider(name) => write!(f, "unknown provider {name:?}"),
            NetError::DuplicateProvider(name) => {
                write!(f, "provider {name:?} is already registered")
            }
            NetError::UnknownOperation {
                provider,
                operation,
            } => {
                write!(f, "provider {provider:?} has no operation {operation:?}")
            }
            NetError::ServiceFault {
                provider,
                operation,
                call_seq,
            } => write!(
                f,
                "service fault at {provider:?}/{operation:?} (call #{call_seq})"
            ),
            NetError::BadRequest { provider, message } => {
                write!(f, "bad request to {provider:?}: {message}")
            }
            NetError::Timeout {
                provider,
                operation,
                call_seq,
            } => write!(
                f,
                "deadline exceeded at {provider:?}/{operation:?} (call #{call_seq})"
            ),
        }
    }
}

impl std::error::Error for NetError {}

/// The simulated network. Cheap to share: wrap in [`Arc`] and clone handles.
#[derive(Debug)]
pub struct Network {
    config: SimConfig,
    providers: RwLock<HashMap<String, Arc<Provider>>>,
    groups: RwLock<HashMap<String, Arc<ReplicaGroup>>>,
}

impl Network {
    /// Creates an empty network.
    pub fn new(config: SimConfig) -> Arc<Self> {
        Arc::new(Network {
            config,
            providers: RwLock::new(HashMap::new()),
            groups: RwLock::new(HashMap::new()),
        })
    }

    /// The simulation config shared by all providers.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Registers a provider. Names are unique: re-registering an existing
    /// name returns [`NetError::DuplicateProvider`] instead of silently
    /// overwriting the live provider (which would orphan in-flight calls
    /// and split the metrics/model clocks). Use [`Network::replicate`] to
    /// scale a logical provider out instead.
    pub fn register(&self, spec: ProviderSpec) -> NetResult<Arc<Provider>> {
        let mut providers = self.providers.write();
        if providers.contains_key(&spec.name) {
            return Err(NetError::DuplicateProvider(spec.name.clone()));
        }
        let provider = Arc::new(Provider::new(spec));
        providers.insert(provider.name().to_owned(), Arc::clone(&provider));
        Ok(provider)
    }

    /// Turns the registered provider `name` into a [`ReplicaGroup`]: the
    /// existing provider becomes replica 0 (so non-routed callers keep the
    /// exact historical behaviour) and each extra spec is registered as an
    /// additional replica. Extra replica names must be unique on the
    /// network — the `"{group}#{i}"` convention keeps them so.
    pub fn replicate(&self, name: &str, extras: Vec<ProviderSpec>) -> NetResult<Arc<ReplicaGroup>> {
        let primary = self.provider(name)?;
        if self.groups.read().contains_key(name) {
            return Err(NetError::DuplicateProvider(name.to_owned()));
        }
        let mut replicas = vec![primary];
        for spec in extras {
            replicas.push(self.register(spec)?);
        }
        let group = Arc::new(ReplicaGroup::new(name, replicas));
        self.groups
            .write()
            .insert(name.to_owned(), Arc::clone(&group));
        Ok(group)
    }

    /// Looks up the replica group fronting logical provider `name`, if one
    /// was created with [`Network::replicate`].
    pub fn group(&self, name: &str) -> Option<Arc<ReplicaGroup>> {
        self.groups.read().get(name).cloned()
    }

    /// Names of all replica groups, sorted.
    pub fn group_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.groups.read().keys().cloned().collect();
        names.sort();
        names
    }

    /// Looks up a provider by name.
    pub fn provider(&self, name: &str) -> NetResult<Arc<Provider>> {
        self.providers
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| NetError::UnknownProvider(name.to_owned()))
    }

    /// Names of all registered providers, sorted.
    pub fn provider_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.providers.read().keys().cloned().collect();
        names.sort();
        names
    }

    /// Aggregated metrics across all providers.
    pub fn total_metrics(&self) -> MetricsSnapshot {
        self.providers
            .read()
            .values()
            .map(|p| p.metrics())
            .fold(MetricsSnapshot::default(), |acc, m| acc.merge(&m))
    }

    /// Per-provider metrics, sorted by provider name.
    pub fn metrics_by_provider(&self) -> Vec<(String, MetricsSnapshot)> {
        let mut rows: Vec<(String, MetricsSnapshot)> = self
            .providers
            .read()
            .iter()
            .map(|(name, p)| (name.clone(), p.metrics()))
            .collect();
        rows.sort_by(|a, b| a.0.cmp(&b.0));
        rows
    }

    /// Total model time charged across all providers — the sum of their
    /// deterministic per-provider model clocks ([`Provider::model_time`]).
    /// Monotone and independent of wall time, so client-side policies
    /// (e.g. circuit-breaker cooldowns) can measure model-time intervals
    /// even at time scale 0.
    pub fn model_time(&self) -> f64 {
        self.providers.read().values().map(|p| p.model_time()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LatencyModel;

    #[test]
    fn register_and_lookup() {
        let net = Network::new(SimConfig::default());
        net.register(ProviderSpec::new("a.example", 2, LatencyModel::fixed(0.1)))
            .unwrap();
        net.register(ProviderSpec::new("b.example", 2, LatencyModel::fixed(0.1)))
            .unwrap();
        assert!(net.provider("a.example").is_ok());
        assert_eq!(
            net.provider("missing").unwrap_err(),
            NetError::UnknownProvider("missing".into())
        );
        assert_eq!(net.provider_names(), vec!["a.example", "b.example"]);
    }

    #[test]
    fn reregistering_is_rejected() {
        // Regression: register used to silently overwrite the live
        // provider, orphaning existing Arc handles (their in-flight calls
        // and model clock kept running on the ghost). Now it errors.
        let net = Network::new(SimConfig::default());
        let original = net
            .register(ProviderSpec::new("p", 1, LatencyModel::fixed(1.0)))
            .unwrap();
        let err = net
            .register(ProviderSpec::new("p", 9, LatencyModel::fixed(1.0)))
            .unwrap_err();
        assert_eq!(err, NetError::DuplicateProvider("p".into()));
        // The original registration is untouched.
        assert_eq!(net.provider("p").unwrap().capacity(), 1);
        assert!(Arc::ptr_eq(&original, &net.provider("p").unwrap()));
    }

    #[test]
    fn replicate_builds_group_around_existing_provider() {
        let net = Network::new(SimConfig::default());
        let primary = net
            .register(ProviderSpec::new("svc", 2, LatencyModel::fixed(0.5)))
            .unwrap();
        let group = net
            .replicate(
                "svc",
                vec![ProviderSpec::new("svc#1", 4, LatencyModel::fixed(0.25))],
            )
            .unwrap();
        assert_eq!(group.name(), "svc");
        assert_eq!(group.effective_capacity(), 6);
        let actives = group.active();
        assert!(Arc::ptr_eq(&actives[0], &primary));
        // Extra replicas are first-class network providers (their model
        // clocks count toward Network::model_time).
        assert!(net.provider("svc#1").is_ok());
        assert_eq!(net.group_names(), vec!["svc"]);
        // A second group under the same name is rejected, as is a group
        // whose extra replica collides with a registered provider.
        assert!(net.replicate("svc", Vec::new()).is_err());
        assert_eq!(
            net.replicate("missing", Vec::new()).unwrap_err(),
            NetError::UnknownProvider("missing".into())
        );
    }

    #[test]
    fn total_metrics_aggregates() {
        let net = Network::new(SimConfig::default());
        let a = net
            .register(ProviderSpec::new("a", 2, LatencyModel::fixed(0.5)))
            .unwrap();
        let b = net
            .register(ProviderSpec::new("b", 2, LatencyModel::fixed(0.25)))
            .unwrap();
        let cfg = net.config().clone();
        a.call(&cfg, "X", 10, || ((), 20)).unwrap();
        a.call(&cfg, "X", 10, || ((), 20)).unwrap();
        b.call(&cfg, "Y", 5, || ((), 5)).unwrap();
        let total = net.total_metrics();
        assert_eq!(total.calls, 3);
        assert_eq!(total.request_bytes, 25);
        assert!((total.total_model_latency - 1.25).abs() < 1e-3);
        let per = net.metrics_by_provider();
        assert_eq!(per[0].0, "a");
        assert_eq!(per[0].1.calls, 2);
        assert_eq!(per[1].1.calls, 1);
    }

    #[test]
    fn error_display_is_informative() {
        let e = NetError::ServiceFault {
            provider: "p".into(),
            operation: "Op".into(),
            call_seq: 3,
        };
        let s = e.to_string();
        assert!(s.contains("p") && s.contains("Op") && s.contains('3'));
    }
}
