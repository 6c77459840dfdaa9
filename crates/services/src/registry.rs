//! The service registry: WSDL discovery plus the simulated SOAP transport.
//!
//! This is the layer the mediator's `cwo` built-in talks to: given a WSDL
//! URI, a service name, an operation and rendered arguments, it streams the
//! request body onto the wire, pays the network/provider latency through
//! [`wsmed_netsim`], runs the service implementation, and returns the
//! response body.

use std::collections::HashMap;
use std::sync::Arc;

use wsmed_netsim::{
    CallOpts, CallStats, InFlight, NetError, NetResult, Network, Provider, ProviderSpec,
};
use wsmed_wsdl::WsdlDocument;
use wsmed_xml::Element;

use crate::dataset::Dataset;
use crate::soap::{Request, SoapService};
use crate::{
    calibration, AviationService, GeoPlacesService, TerraService, UsZipService, ZipCodesService,
};

/// A service bound to its provider.
#[derive(Clone)]
pub struct ServiceEndpoint {
    /// The service implementation.
    pub service: Arc<dyn SoapService>,
    /// The netsim provider hosting it.
    pub provider: Arc<Provider>,
    /// The service contract (cached from [`SoapService::wsdl`]).
    pub wsdl: WsdlDocument,
}

/// All services reachable on a network, addressed by WSDL URI.
#[derive(Clone)]
pub struct ServiceRegistry {
    network: Arc<Network>,
    endpoints: HashMap<String, ServiceEndpoint>,
}

impl ServiceRegistry {
    /// Creates an empty registry over a network.
    pub fn new(network: Arc<Network>) -> Self {
        ServiceRegistry {
            network,
            endpoints: HashMap::new(),
        }
    }

    /// The underlying network.
    pub fn network(&self) -> &Arc<Network> {
        &self.network
    }

    /// Installs a service: registers its provider (if new) and indexes it
    /// under its WSDL URI.
    pub fn install(&mut self, service: Arc<dyn SoapService>, provider_spec: ProviderSpec) {
        assert_eq!(
            provider_spec.name,
            service.provider_name(),
            "provider spec does not match the service's provider"
        );
        let provider = match self.network.provider(&provider_spec.name) {
            Ok(existing) => existing,
            Err(_) => self
                .network
                .register(provider_spec)
                .expect("provider checked absent just above"),
        };
        let wsdl = service.wsdl();
        self.endpoints.insert(
            service.wsdl_uri().to_owned(),
            ServiceEndpoint {
                service,
                provider,
                wsdl,
            },
        );
    }

    /// Returns the endpoint registered under a WSDL URI.
    pub fn endpoint(&self, wsdl_uri: &str) -> NetResult<&ServiceEndpoint> {
        self.endpoints
            .get(wsdl_uri)
            .ok_or_else(|| NetError::UnknownProvider(wsdl_uri.to_owned()))
    }

    /// All registered WSDL URIs, sorted.
    pub fn wsdl_uris(&self) -> Vec<&str> {
        let mut uris: Vec<&str> = self.endpoints.keys().map(String::as_str).collect();
        uris.sort();
        uris
    }

    /// Fetches a service's WSDL document text — what the mediator imports.
    /// Metadata import happens once before query execution, so it is not
    /// charged against the latency model.
    pub fn wsdl_xml(&self, wsdl_uri: &str) -> NetResult<String> {
        Ok(self.endpoint(wsdl_uri)?.wsdl.to_xml_string())
    }

    /// The `cwo` transport (paper Fig. 2 line 14): calls `operation` of the
    /// service at `wsdl_uri` with rendered arguments, paying the simulated
    /// latency on the calling thread, and returns the response body element.
    ///
    /// `service_name` is checked against the registered service, mirroring
    /// `cwo`'s signature `cwo(wsdl_uri, service, operation, args)`.
    pub fn call(
        &self,
        wsdl_uri: &str,
        service_name: &str,
        operation: &str,
        args: &[(String, String)],
    ) -> NetResult<Element> {
        let (in_flight, result) =
            self.call_on_provider(wsdl_uri, service_name, operation, args, None, None);
        if let Some(in_flight) = in_flight {
            in_flight.pay_here();
        }
        result.map(|(response, _stats)| response)
    }

    /// [`Self::call`] for callers that meter, steer and wait out the call
    /// themselves: it returns, without waiting, the provider's
    /// [`InFlight`] hold (`None` when the request never reached the
    /// provider), which carries the model seconds the call charged and
    /// must be dropped once they are paid, together with the outcome and
    /// its per-call wire accounting ([`CallStats`]: request and response
    /// bytes, model latency). It takes
    ///
    /// * an optional model-time deadline — a call whose model latency
    ///   (hangs and brownouts included) would exceed it charges exactly the
    ///   deadline and returns [`NetError::Timeout`];
    /// * an optional provider override — the client-side router passes the
    ///   replica it selected and the call pays *that* replica's
    ///   latency/capacity/fault model while still running the endpoint's
    ///   service implementation. `None` uses the endpoint's own provider
    ///   (replica 0 of a replicated group).
    ///
    /// Argument names and texts are only read, so any pair of string-like
    /// types will do. The request's rendered content keys the provider's
    /// argument-keyed chaos rolls, making the set of failing argument
    /// tuples independent of dispatch interleaving.
    pub fn call_on_provider<N: AsRef<str>, V: AsRef<str>>(
        &self,
        wsdl_uri: &str,
        service_name: &str,
        operation: &str,
        args: &[(N, V)],
        deadline_model_secs: Option<f64>,
        replica: Option<&Arc<Provider>>,
    ) -> (Option<InFlight>, NetResult<(Element, CallStats)>) {
        let endpoint = match self.operation_endpoint(wsdl_uri, service_name, operation) {
            Ok(endpoint) => endpoint,
            Err(e) => return (None, Err(e)),
        };
        let provider = replica.unwrap_or(&endpoint.provider);

        let wire = RequestWire::of(operation, args);
        let opts = CallOpts {
            deadline_model_secs,
            args_key: wire.content_key,
        };

        let (in_flight, served) =
            provider.call_with_opts(self.network.config(), operation, wire.bytes, opts, || {
                match endpoint.service.invoke(operation, &Request::new(&args)) {
                    Ok(resp) => {
                        let bytes = resp.encoded_len();
                        (Ok(resp), bytes)
                    }
                    Err(msg) => (Err(msg), 128),
                }
            });
        let result = served.and_then(|(response, stats)| match response {
            Ok(response) => Ok((response, stats)),
            Err(message) => Err(NetError::BadRequest {
                provider: endpoint.service.provider_name().to_owned(),
                message,
            }),
        });
        (Some(in_flight), result)
    }

    /// The endpoint at `wsdl_uri`, once it is known to host `service_name`
    /// with an operation `operation`.
    fn operation_endpoint(
        &self,
        wsdl_uri: &str,
        service_name: &str,
        operation: &str,
    ) -> NetResult<&ServiceEndpoint> {
        let endpoint = self.endpoint(wsdl_uri)?;
        if endpoint.service.service_name() != service_name {
            return Err(NetError::BadRequest {
                provider: endpoint.service.provider_name().to_owned(),
                message: format!(
                    "service {service_name:?} not found at {wsdl_uri:?} (hosts {:?})",
                    endpoint.service.service_name()
                ),
            });
        }
        if endpoint.wsdl.operation(operation).is_none() {
            return Err(NetError::UnknownOperation {
                provider: endpoint.service.provider_name().to_owned(),
                operation: operation.to_owned(),
            });
        }
        Ok(endpoint)
    }
}

/// What the provider needs to know of a rendered request, accumulated
/// while the request streams through: its size in bytes and the FNV-1a hash
/// of those bytes — the argument-content key for
/// [`wsmed_netsim::FaultSpec::keyed_by_args`] chaos rolls.
struct RequestWire {
    bytes: usize,
    content_key: u64,
}

impl RequestWire {
    /// The wire of the body `<operation><name>text</name>…</operation>`,
    /// streamed from the argument pairs: neither the body's tree nor its
    /// text is ever built.
    fn of<N: AsRef<str>, V: AsRef<str>>(operation: &str, args: &[(N, V)]) -> Self {
        let mut wire = RequestWire::default();
        wsmed_xml::write_leaves_to(operation, args, &mut wire).expect("hashing cannot fail");
        wire
    }
}

impl Default for RequestWire {
    fn default() -> Self {
        RequestWire {
            bytes: 0,
            content_key: 0xcbf2_9ce4_8422_2325,
        }
    }
}

impl std::fmt::Write for RequestWire {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.bytes += s.len();
        for &b in s.as_bytes() {
            self.content_key ^= u64::from(b);
            self.content_key = self.content_key.wrapping_mul(0x0000_0100_0000_01b3);
        }
        Ok(())
    }
}

/// Installs the paper's four services plus the repository's AviationData
/// service (the three-level Query3 chain) on a network, with calibrated
/// provider specs, over a shared dataset. Returns the registry the
/// mediator uses as its `cwo` transport.
pub fn install_paper_services(network: Arc<Network>, dataset: Arc<Dataset>) -> ServiceRegistry {
    let mut registry = ServiceRegistry::new(network);
    registry.install(
        Arc::new(GeoPlacesService::new(Arc::clone(&dataset))),
        calibration::geoplaces_spec(),
    );
    registry.install(
        Arc::new(TerraService::new(Arc::clone(&dataset))),
        calibration::terraservice_spec(),
    );
    registry.install(
        Arc::new(UsZipService::new(Arc::clone(&dataset))),
        calibration::uszip_spec(),
    );
    registry.install(
        Arc::new(ZipCodesService::new(Arc::clone(&dataset))),
        calibration::zipcodes_spec(),
    );
    registry.install(
        Arc::new(AviationService::new(dataset)),
        calibration::aviation_spec(),
    );
    registry
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::DatasetConfig;
    use wsmed_netsim::SimConfig;

    fn setup() -> ServiceRegistry {
        let network = Network::new(SimConfig::default());
        let dataset = Arc::new(Dataset::generate(DatasetConfig::tiny()));
        install_paper_services(network, dataset)
    }

    /// FNV-1a of the rendered request text: how the content key was
    /// computed while the request was still rendered to a `String`.
    fn reference_content_key(request_xml: &str) -> u64 {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in request_xml.as_bytes() {
            hash ^= b as u64;
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        hash
    }

    /// The request body as the registry built it before the body was
    /// streamed: the tree whose rendering the wire is held to.
    fn rendered_request(operation: &str, args: &[(String, String)]) -> String {
        let mut request = Element::new(operation.to_owned());
        request.children = args
            .iter()
            .map(|(name, value)| Element::text_leaf(name.clone(), value.as_str()))
            .collect();
        request.to_xml()
    }

    // Requests with repeated names and texts that are empty, need escaping
    // or run to multi-byte characters.
    proptest::proptest! {
        #[test]
        fn prop_streamed_wire_matches_rendered_request(
            operation in "[A-Za-z]{1,12}",
            args in proptest::collection::vec(
                ("[a-c]{1,2}", "[ -~\u{e9}\u{1F600}]{0,12}"),
                0..5,
            ),
        ) {
            let wire = RequestWire::of(&operation, &args);
            let rendered = rendered_request(&operation, &args);
            proptest::prop_assert_eq!(wire.bytes, rendered.len());
            proptest::prop_assert_eq!(wire.content_key, reference_content_key(&rendered));
        }
    }

    #[test]
    fn call_stats_carry_the_rendered_sizes() {
        let reg = setup();
        let args = [("zip", "80840")];
        let (response, stats) = reg
            .call_on_provider(
                ZipCodesService::WSDL_URI,
                "ZipCodes",
                "GetPlacesInside",
                &args,
                None,
                None,
            )
            .1
            .unwrap();
        let request = "<GetPlacesInside><zip>80840</zip></GetPlacesInside>";
        assert_eq!(stats.request_bytes, request.len());
        assert_eq!(stats.response_bytes, response.to_xml().len());
    }

    #[test]
    fn installs_five_endpoints() {
        let reg = setup();
        assert_eq!(reg.wsdl_uris().len(), 5);
        assert!(reg.endpoint(GeoPlacesService::WSDL_URI).is_ok());
        assert!(reg.endpoint("http://nope.example/x.wsdl").is_err());
    }

    #[test]
    fn wsdl_xml_is_importable() {
        let reg = setup();
        for uri in reg.wsdl_uris() {
            let xml = reg.wsdl_xml(uri).unwrap();
            let doc = wsmed_wsdl::parse_wsdl(&xml).unwrap();
            assert!(!doc.operations.is_empty(), "{uri} has no operations");
        }
    }

    #[test]
    fn call_get_all_states() {
        let reg = setup();
        let resp = reg
            .call(GeoPlacesService::WSDL_URI, "GeoPlaces", "GetAllStates", &[])
            .unwrap();
        assert_eq!(resp.local_name(), "GetAllStatesResponse");
        assert_eq!(resp.child("GetAllStatesResult").unwrap().children.len(), 51);
        // Metrics recorded at the provider.
        let m = reg
            .endpoint(GeoPlacesService::WSDL_URI)
            .unwrap()
            .provider
            .metrics();
        assert_eq!(m.calls, 1);
        assert!(m.response_bytes > 1_000);
        assert!(m.total_model_latency > 0.0);
    }

    #[test]
    fn call_with_args() {
        let reg = setup();
        let resp = reg
            .call(
                UsZipService::WSDL_URI,
                "USZip",
                "GetInfoByState",
                &[("USState".to_owned(), "CO".to_owned())],
            )
            .unwrap();
        assert!(resp
            .child("GetInfoByStateResult")
            .unwrap()
            .text()
            .contains("80840"));
    }

    #[test]
    fn wrong_service_name_is_bad_request() {
        let reg = setup();
        let err = reg
            .call(GeoPlacesService::WSDL_URI, "WrongName", "GetAllStates", &[])
            .unwrap_err();
        assert!(matches!(err, NetError::BadRequest { .. }));
    }

    #[test]
    fn unknown_operation_is_error() {
        let reg = setup();
        let err = reg
            .call(GeoPlacesService::WSDL_URI, "GeoPlaces", "Nope", &[])
            .unwrap_err();
        assert!(matches!(err, NetError::UnknownOperation { .. }));
    }

    #[test]
    fn service_level_error_is_bad_request() {
        let reg = setup();
        // GetPlacesWithin without its arguments fails inside the service.
        let err = reg
            .call(
                GeoPlacesService::WSDL_URI,
                "GeoPlaces",
                "GetPlacesWithin",
                &[],
            )
            .unwrap_err();
        assert!(matches!(err, NetError::BadRequest { .. }));
        // The provider still recorded the (failed-at-service-level) call.
        let m = reg
            .endpoint(GeoPlacesService::WSDL_URI)
            .unwrap()
            .provider
            .metrics();
        assert_eq!(m.calls, 1);
    }

    #[test]
    fn injected_fault_surfaces() {
        let reg = setup();
        let endpoint = reg.endpoint(ZipCodesService::WSDL_URI).unwrap();
        endpoint.provider.set_fault(wsmed_netsim::FaultSpec {
            fail_first: 1,
            ..Default::default()
        });
        let err = reg
            .call(
                ZipCodesService::WSDL_URI,
                "ZipCodes",
                "GetPlacesInside",
                &[("zip".to_owned(), "80840".to_owned())],
            )
            .unwrap_err();
        assert!(matches!(err, NetError::ServiceFault { .. }));
        // Next call succeeds.
        assert!(reg
            .call(
                ZipCodesService::WSDL_URI,
                "ZipCodes",
                "GetPlacesInside",
                &[("zip".to_owned(), "80840".to_owned())],
            )
            .is_ok());
    }
}
