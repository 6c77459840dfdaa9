//! The web-service transport abstraction.
//!
//! Operator code (γ apply, `FF_APPLYP`, `AFF_APPLYP`) never talks to a
//! concrete network; it calls a [`WsTransport`]. Production code uses
//! [`SimTransport`] over the simulated providers; operator unit tests use
//! [`MockTransport`] with scripted results and optional artificial delays.
//!
//! A transport never waits: a call returns at once with the [`Charge`] it
//! owes the clock, and the caller waits that out on a timer of the
//! [`wsmed_netsim::runtime`] — a query process on its own pacing debt, a
//! plain caller on its thread's, driving the timer itself
//! ([`Charge::pay_here`]).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use wsmed_services::ServiceRegistry;
use wsmed_store::Value;
use wsmed_wsdl::{OwfDef, Response};

use crate::{CoreError, CoreResult};

/// How `FF_APPLYP` assigns parameter tuples to child processes.
///
/// The paper's operator is *first finished*: whichever child reports
/// end-of-call first receives the next pending parameter, so slow calls
/// never block fast children. The round-robin alternative statically
/// pre-partitions the parameter stream across children — the classic
/// static-partitioning baseline the FF design improves on under skewed
/// per-call latency. Exposed as an execution-level knob for the ablation
/// bench; adaptive plans always use first-finished.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DispatchPolicy {
    /// Paper semantics: next parameter to the first finished child.
    #[default]
    FirstFinished,
    /// Static pre-partitioning: parameter i goes to child i mod fanout.
    RoundRobin,
}

/// How parameter and result tuples are grouped into message frames
/// between a parallel operator and its child query processes.
///
/// The paper ships one tuple per message; that is the `Default` here
/// (`max_params = max_result_tuples = 1`), and it reproduces the paper's
/// behaviour exactly. Larger values amortize the per-message dispatch
/// overhead ([`wsmed_netsim::ClientCostModel::message_dispatch`]) over
/// many tuples at the price of latency: a child holds results back until
/// its flush buffer fills, the call ends, or `flush_model_secs` of model
/// time has accumulated since the buffer's first tuple — the time bound
/// keeps first-row latency honest under large `max_result_tuples`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchPolicy {
    /// Maximum parameter tuples handed to an idle child in one frame.
    pub max_params: usize,
    /// Maximum result tuples a child buffers before flushing a frame.
    pub max_result_tuples: usize,
    /// Model seconds a child may hold a non-empty result buffer.
    pub flush_model_secs: f64,
    /// Ship Call/ResultBatch frames in the columnar wire format
    /// (`wire::encode_columnar_message`): whole-column encodes on the
    /// sender, zero-copy string decode on the receiver. Off by default —
    /// the row format is the paper's per-tuple semantics; either setting
    /// yields identical results and identical model-time accounting.
    pub columnar: bool,
}

impl Default for BatchPolicy {
    fn default() -> Self {
        // Paper semantics: every tuple is its own message.
        BatchPolicy {
            max_params: 1,
            max_result_tuples: 1,
            flush_model_secs: 0.05,
            columnar: false,
        }
    }
}

impl BatchPolicy {
    /// A symmetric policy batching up to `n` tuples in both directions.
    pub fn uniform(n: usize) -> Self {
        BatchPolicy {
            max_params: n.max(1),
            max_result_tuples: n.max(1),
            ..Default::default()
        }
    }

    /// [`BatchPolicy::uniform`] with the columnar wire format enabled.
    pub fn columnar(n: usize) -> Self {
        BatchPolicy {
            columnar: true,
            ..BatchPolicy::uniform(n)
        }
    }

    /// Capacity, in frames, of one parent→child (or child→parent) mailbox.
    ///
    /// Derived from `max_params`: wider parameter frames mean fewer frames
    /// in flight carry the same tuple volume, so a small frame window
    /// suffices; the clamp keeps the window sane at both extremes. The
    /// floor of 2 guarantees a control frame (Install/Attach/Shutdown)
    /// plus one data frame always fit, which teardown relies on.
    pub fn mailbox_capacity(&self) -> usize {
        self.max_params.clamp(2, 64)
    }
}

/// What a web-service call owes the clock before its caller may see the
/// outcome: the model seconds its provider charged, and wall time owed at
/// any scale (a [`MockTransport`]'s delay). It holds the provider's
/// in-flight slot, so dropping it — once the charge is paid — ends the
/// call.
#[derive(Debug, Default)]
#[must_use = "a call's charge is paid before its outcome is used"]
pub struct Charge {
    in_flight: Option<wsmed_netsim::InFlight>,
    pub(crate) wall: Duration,
}

impl Charge {
    /// The charge of a call that `in_flight` holds at its provider (none:
    /// the call never reached one), plus `wall` time owed at any scale.
    pub fn new(in_flight: Option<wsmed_netsim::InFlight>, wall: Duration) -> Self {
        Charge { in_flight, wall }
    }

    /// The model seconds the provider charged (0 without a provider).
    pub fn model_secs(&self) -> f64 {
        self.in_flight
            .as_ref()
            .map_or(0.0, wsmed_netsim::InFlight::model_secs)
    }

    /// Pays the charge on the calling thread — the model seconds on the
    /// thread's own pacing debt, then the wall time, both as timers of one
    /// [`wsmed_netsim::pacing::pay_here`] — then ends the call.
    pub fn pay_here(self) {
        let time_scale = self
            .in_flight
            .as_ref()
            .map_or(0.0, wsmed_netsim::InFlight::time_scale);
        wsmed_netsim::pacing::pay_here(time_scale, self.model_secs(), self.wall);
    }
}

/// Something that can invoke a data-providing web service operation.
pub trait WsTransport: Send + Sync {
    /// Invokes `owf`'s operation with typed argument values (the `cwo`
    /// built-in, paper Fig. 2 line 14), without waiting: returns what the
    /// call owes the clock, which the caller pays before it uses the
    /// outcome, and the outcome — the response in the form the transport
    /// has it (a service's XML body, or a value) and the wire bytes
    /// (request + response) the call moved, so each execution context can
    /// meter its own traffic without diffing global provider metrics.
    ///
    /// With a `deadline_model_secs`, a call whose model latency would
    /// exceed it charges exactly the deadline and fails with
    /// [`CoreError::DeadlineExceeded`]. With a `replica`, the call is
    /// pinned to that member of the OWF's provider group (client-side
    /// routing); `None` keeps the transport's own endpoint resolution.
    /// Transports without a latency model, a wire model or a replica
    /// topology ignore the deadline, report zero bytes and ignore the
    /// replica.
    fn call(
        &self,
        owf: &OwfDef,
        args: &[Value],
        deadline_model_secs: Option<f64>,
        replica: Option<&str>,
    ) -> (Charge, CoreResult<(Response, u64)>);

    /// [`WsTransport::call`] with no deadline and no pinned replica, paid
    /// on the calling thread ([`Charge::pay_here`]), returning only the
    /// response, converted into record/sequence values.
    fn call_operation(&self, owf: &OwfDef, args: &[Value]) -> CoreResult<Value> {
        let (charge, result) = self.call(owf, args, None, None);
        charge.pay_here();
        result.map(|(response, _bytes)| response.into_value())
    }

    /// The routable replica-group view for an OWF's provider, when the
    /// provider was scaled out into a [`wsmed_netsim::ReplicaGroup`].
    /// Building the view advances the group's topology scenario to the
    /// current model time, so the returned
    /// [`crate::router::GroupView::changes`] carries any membership events
    /// that just fired. The default (no topology) reports `None`, which
    /// keeps every non-replicated call on the historical single-provider
    /// path.
    fn group_view(&self, owf: &OwfDef) -> Option<crate::router::GroupView> {
        let _ = owf;
        None
    }

    /// The provider name an OWF's calls resolve to — the key the per-
    /// provider circuit breaker trips on. The default uses the OWF's
    /// service name; transports that know the real endpoint override it.
    fn provider_name(&self, owf: &OwfDef) -> String {
        owf.service.clone()
    }

    /// A monotone model-time clock for client-side policies (circuit-
    /// breaker cooldowns). The default (for mocks) is frozen at zero,
    /// which makes cooldowns elapse immediately.
    fn model_now(&self) -> f64 {
        0.0
    }

    /// The calibrated planner profile for an OWF's provider — capacity and
    /// expected per-call latency at nominal request/response sizes — used
    /// to warm-start [`crate::costs::PlannerStats`] before anything has
    /// executed. The default (for mocks without a latency model) reports
    /// nothing, leaving the cost model on its own defaults.
    fn provider_profile(&self, owf: &OwfDef) -> Option<crate::costs::ProviderProfile> {
        let _ = owf;
        None
    }
}

/// Stable one-word class of a call error, carried on
/// [`crate::TraceEventKind::WsCall`] and accepted by `trace_export --check`.
pub(crate) fn error_class(e: &CoreError) -> &'static str {
    use wsmed_netsim::NetError;
    match e {
        CoreError::Net(NetError::ServiceFault { .. }) => "fault",
        CoreError::Net(NetError::Timeout { .. }) | CoreError::DeadlineExceeded { .. } => "timeout",
        CoreError::Net(NetError::BadRequest { .. }) => "bad_request",
        CoreError::Net(NetError::UnknownOperation { .. }) => "unknown_op",
        _ => "other",
    }
}

/// Transport over the simulated service registry.
pub struct SimTransport {
    registry: ServiceRegistry,
}

impl SimTransport {
    /// Wraps a service registry.
    pub fn new(registry: ServiceRegistry) -> Self {
        SimTransport { registry }
    }

    /// The underlying registry (for WSDL import and metrics).
    pub fn registry(&self) -> &ServiceRegistry {
        &self.registry
    }
}

impl SimTransport {
    /// Checks `args` against `owf` and renders them as the request's
    /// argument texts.
    fn render<'a>(
        owf: &'a OwfDef,
        args: &'a [Value],
    ) -> CoreResult<Vec<(&'a str, std::borrow::Cow<'a, str>)>> {
        if args.len() != owf.inputs.len() {
            return Err(CoreError::InvalidPlan(format!(
                "OWF {} expects {} arguments, plan supplied {}",
                owf.name,
                owf.inputs.len(),
                args.len()
            )));
        }
        let mut rendered = Vec::with_capacity(args.len());
        for ((name, ty), value) in owf.inputs.iter().zip(args) {
            rendered.push((name.as_str(), ty.value_to_text(value)?));
        }
        Ok(rendered)
    }
}

impl WsTransport for SimTransport {
    fn call(
        &self,
        owf: &OwfDef,
        args: &[Value],
        deadline_model_secs: Option<f64>,
        replica: Option<&str>,
    ) -> (Charge, CoreResult<(Response, u64)>) {
        let replica = replica
            .map(|name| self.registry.network().provider(name))
            .transpose()
            .map_err(CoreError::Net);
        let request = replica.and_then(|replica| Ok((replica, Self::render(owf, args)?)));
        let (replica, rendered) = match request {
            Ok(request) => request,
            Err(e) => return (Charge::default(), Err(e)),
        };
        let (in_flight, result) = self.registry.call_on_provider(
            &owf.wsdl_uri,
            &owf.service,
            &owf.operation,
            &rendered,
            deadline_model_secs,
            replica.as_ref(),
        );
        let result = match result {
            Ok((body, stats)) => {
                let bytes = (stats.request_bytes + stats.response_bytes) as u64;
                Ok((Response::Xml(body), bytes))
            }
            Err(wsmed_netsim::NetError::Timeout {
                provider,
                operation,
                ..
            }) => Err(CoreError::DeadlineExceeded {
                provider,
                operation,
                deadline_model_secs: deadline_model_secs.unwrap_or(f64::INFINITY),
            }),
            Err(other) => Err(CoreError::Net(other)),
        };
        (Charge::new(in_flight, Duration::ZERO), result)
    }

    fn group_view(&self, owf: &OwfDef) -> Option<crate::router::GroupView> {
        let name = self.provider_name(owf);
        let group = self.registry.network().group(&name)?;
        // Advance the scripted topology to "now": its membership events
        // are what the caller traces and counts.
        let changes = group.poll(self.model_now());
        let replicas: Vec<crate::router::ReplicaView> = group
            .active()
            .iter()
            .map(|p| crate::router::ReplicaView {
                name: p.name().to_owned(),
                in_flight: p.in_flight(),
                capacity: p.capacity(),
                latency_secs: p
                    .latency_model(&owf.operation)
                    .expected_latency(200, 1024, 1.0),
            })
            .collect();
        Some(crate::router::GroupView {
            group: name,
            replicas,
            changes,
        })
    }

    fn provider_name(&self, owf: &OwfDef) -> String {
        self.registry
            .endpoint(&owf.wsdl_uri)
            .map(|e| e.provider.name().to_owned())
            .unwrap_or_else(|_| owf.service.clone())
    }

    fn model_now(&self) -> f64 {
        self.registry.network().model_time()
    }

    fn provider_profile(&self, owf: &OwfDef) -> Option<crate::costs::ProviderProfile> {
        let endpoint = self.registry.endpoint(&owf.wsdl_uri).ok()?;
        let name = endpoint.provider.name().to_owned();
        // A replicated provider presents its *group-level* effective
        // capacity to the planner: the pooled capacity of the active
        // replicas and their capacity-weighted expected latency. The cost
        // model then prices fanout against the elastic pool, not just
        // replica 0.
        if let Some(group) = self.registry.network().group(&name) {
            let active = group.active();
            let capacity: usize = active.iter().map(|p| p.capacity()).sum();
            if capacity > 0 {
                let latency_secs = active
                    .iter()
                    .map(|p| {
                        p.capacity() as f64
                            * p.latency_model(&owf.operation)
                                .expected_latency(200, 1024, 1.0)
                    })
                    .sum::<f64>()
                    / capacity as f64;
                return Some(crate::costs::ProviderProfile {
                    provider: name,
                    capacity,
                    latency_secs,
                });
            }
        }
        // Nominal sizes: a small request and a ~1 KiB response at quiet
        // congestion — a warm-start estimate the stats layer refines from
        // observed calls.
        let latency_secs = endpoint
            .provider
            .latency_model(&owf.operation)
            .expected_latency(200, 1024, 1.0);
        Some(crate::costs::ProviderProfile {
            provider: name,
            capacity: endpoint.provider.capacity(),
            latency_secs,
        })
    }
}

/// The closure type a [`MockTransport`] dispatches to.
type Responder = Box<dyn Fn(&OwfDef, &[Value]) -> CoreResult<Value> + Send + Sync>;

/// The closure type a [`MockTransport`] takes its per-call delay from.
type Delay = Box<dyn Fn(&OwfDef, &[Value]) -> Duration + Send + Sync>;

/// Scripted transport for operator tests: a closure maps `(operation,
/// args)` to a response value, and an optional one to the wall-clock
/// delay the call charges (at any time scale), which exercises
/// concurrency.
pub struct MockTransport {
    respond: Responder,
    delay: Option<Delay>,
    calls: AtomicU64,
}

impl MockTransport {
    /// Creates a mock from a response function.
    pub fn new(
        respond: impl Fn(&OwfDef, &[Value]) -> CoreResult<Value> + Send + Sync + 'static,
    ) -> Arc<Self> {
        Arc::new(MockTransport {
            respond: Box::new(respond),
            delay: None,
            calls: AtomicU64::new(0),
        })
    }

    /// Creates a mock whose calls also charge `delay(owf, args)` of wall
    /// time, which the caller waits out like any other charge.
    pub fn with_delay(
        delay: impl Fn(&OwfDef, &[Value]) -> Duration + Send + Sync + 'static,
        respond: impl Fn(&OwfDef, &[Value]) -> CoreResult<Value> + Send + Sync + 'static,
    ) -> Arc<Self> {
        Arc::new(MockTransport {
            respond: Box::new(respond),
            delay: Some(Box::new(delay)),
            calls: AtomicU64::new(0),
        })
    }

    /// How many calls were made.
    pub fn call_count(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }
}

impl WsTransport for MockTransport {
    fn call(
        &self,
        owf: &OwfDef,
        args: &[Value],
        _deadline_model_secs: Option<f64>,
        _replica: Option<&str>,
    ) -> (Charge, CoreResult<(Response, u64)>) {
        self.calls.fetch_add(1, Ordering::Relaxed);
        let delay = self.delay.as_ref();
        let charge = Charge::new(None, delay.map_or(Duration::ZERO, |delay| delay(owf, args)));
        let result = (self.respond)(owf, args).map(|value| (Response::Value(value), 0));
        (charge, result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc as StdArc;
    use wsmed_netsim::{Network, SimConfig};
    use wsmed_services::{install_paper_services, Dataset, DatasetConfig};

    fn sim() -> SimTransport {
        let network = Network::new(SimConfig::default());
        let dataset = StdArc::new(Dataset::generate(DatasetConfig::tiny()));
        SimTransport::new(install_paper_services(network, dataset))
    }

    fn states_owf(transport: &SimTransport) -> OwfDef {
        let xml = transport
            .registry()
            .wsdl_xml(wsmed_services::GeoPlacesService::WSDL_URI)
            .unwrap();
        let doc = wsmed_wsdl::parse_wsdl(&xml).unwrap();
        OwfDef::derive(
            doc.operation("GetAllStates").unwrap(),
            &doc.service_name,
            wsmed_services::GeoPlacesService::WSDL_URI,
        )
        .unwrap()
    }

    #[test]
    fn sim_transport_calls_and_flattens() {
        let t = sim();
        let owf = states_owf(&t);
        let value = t.call_operation(&owf, &[]).unwrap();
        let rows = owf.flatten(&value).unwrap();
        assert_eq!(rows.len(), 51);
    }

    #[test]
    fn sim_transport_checks_arity() {
        let t = sim();
        let owf = states_owf(&t);
        let err = t.call_operation(&owf, &[Value::str("extra")]).unwrap_err();
        assert!(matches!(err, CoreError::InvalidPlan(_)));
    }

    #[test]
    fn sim_transport_renders_typed_args() {
        let t = sim();
        let xml = t
            .registry()
            .wsdl_xml(wsmed_services::TerraService::WSDL_URI)
            .unwrap();
        let doc = wsmed_wsdl::parse_wsdl(&xml).unwrap();
        let owf = OwfDef::derive(
            doc.operation("GetPlaceList").unwrap(),
            &doc.service_name,
            wsmed_services::TerraService::WSDL_URI,
        )
        .unwrap();
        // Int and Str-as-bool coerce correctly on the way out.
        let value = t
            .call_operation(
                &owf,
                &[
                    Value::str("Nowhere, ZZ"),
                    Value::Int(100),
                    Value::str("true"),
                ],
            )
            .unwrap();
        assert!(owf.flatten(&value).unwrap().is_empty());
    }

    #[test]
    fn sim_transport_reports_provider_profiles() {
        let t = sim();
        let owf = states_owf(&t);
        let profile = t.provider_profile(&owf).unwrap();
        assert_eq!(profile.provider, t.provider_name(&owf));
        assert!(profile.capacity >= 1);
        assert!(profile.latency_secs > 0.0);
        // Mocks report nothing.
        let mock = MockTransport::new(|_, _| Ok(Value::Sequence(vec![])));
        assert!(mock.provider_profile(&owf).is_none());
    }

    #[test]
    fn batch_policy_defaults_to_paper_semantics() {
        let p = BatchPolicy::default();
        assert_eq!((p.max_params, p.max_result_tuples), (1, 1));
        let u = BatchPolicy::uniform(0);
        assert_eq!((u.max_params, u.max_result_tuples), (1, 1));
        let u = BatchPolicy::uniform(64);
        assert_eq!((u.max_params, u.max_result_tuples), (64, 64));
    }

    #[test]
    fn mailbox_capacity_derivation() {
        assert_eq!(BatchPolicy::default().mailbox_capacity(), 2);
        assert_eq!(BatchPolicy::uniform(16).mailbox_capacity(), 16);
        assert_eq!(BatchPolicy::uniform(500).mailbox_capacity(), 64);
    }

    #[test]
    fn mock_transport_counts_and_responds() {
        let mock = MockTransport::new(|_, args| Ok(Value::Sequence(vec![args[0].clone()])));
        let owf = OwfDef {
            name: "F".into(),
            service: "S".into(),
            wsdl_uri: "u".into(),
            operation: "F".into(),
            inputs: vec![("x".into(), wsmed_store::SqlType::Charstring)],
            columns: vec![("y".into(), wsmed_store::SqlType::Charstring)],
            flatten: wsmed_wsdl::FlattenSpec {
                path: vec![],
                leaf: wsmed_wsdl::LeafKind::Scalar("y".into(), wsmed_store::SqlType::Charstring),
            },
        };
        let v = mock.call_operation(&owf, &[Value::str("hello")]).unwrap();
        assert_eq!(v, Value::Sequence(vec![Value::str("hello")]));
        assert_eq!(mock.call_count(), 1);
    }
}
