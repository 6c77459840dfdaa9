//! The **AviationData** service: a three-operation chain used by the
//! repository's Query3 workload (`GetAirports` → `GetDepartures` →
//! `GetFlightStatus`).
//!
//! The paper's evaluation stops at two dependent web service calls per
//! query; this service provides a realistic *three*-level dependency so
//! the generality claim of §VII ("any number of dependent joins") can be
//! exercised against simulated providers rather than mocks.

use std::sync::Arc;

use wsmed_store::SqlType;
use wsmed_wsdl::WsdlDocument;
use wsmed_xml::Element;

use crate::dataset::Dataset;
use crate::soap::{nested_response, nested_result_operation, scalar_arg, Request, SoapService};

/// Simulated `http://aviationdata.example/AviationData.asmx`.
#[derive(Debug, Clone)]
pub struct AviationService {
    dataset: Arc<Dataset>,
}

impl AviationService {
    /// WSDL URI under which the mediator imports AviationData.
    pub const WSDL_URI: &'static str = "http://aviationdata.example/AviationData.wsdl";
    /// The netsim provider hosting this service.
    pub const PROVIDER: &'static str = "aviationdata.example";

    /// Creates the service over a dataset.
    pub fn new(dataset: Arc<Dataset>) -> Self {
        AviationService { dataset }
    }
}

impl SoapService for AviationService {
    fn service_name(&self) -> &str {
        "AviationData"
    }

    fn wsdl_uri(&self) -> &str {
        Self::WSDL_URI
    }

    fn provider_name(&self) -> &str {
        Self::PROVIDER
    }

    fn wsdl(&self) -> WsdlDocument {
        WsdlDocument {
            service_name: "AviationData".to_owned(),
            target_namespace: "http://aviationdata.example".to_owned(),
            operations: vec![
                nested_result_operation(
                    "GetAirports",
                    &[("stateAbbr", SqlType::Charstring)],
                    "Airport",
                    &[("Code", SqlType::Charstring), ("City", SqlType::Charstring)],
                    "Airports of a state",
                ),
                nested_result_operation(
                    "GetDepartures",
                    &[("airportCode", SqlType::Charstring)],
                    "Departure",
                    &[
                        ("FlightNo", SqlType::Charstring),
                        ("DestCode", SqlType::Charstring),
                    ],
                    "Departures from an airport",
                ),
                nested_result_operation(
                    "GetFlightStatus",
                    &[("flightNo", SqlType::Charstring)],
                    "FlightStatus",
                    &[
                        ("Status", SqlType::Charstring),
                        ("DelayMinutes", SqlType::Integer),
                    ],
                    "Live status of a flight",
                ),
            ],
        }
    }

    fn invoke(&self, operation: &str, request: &Request<'_>) -> Result<Element, String> {
        match operation {
            "GetAirports" => {
                let state = scalar_arg(request, "stateAbbr")?;
                let rows = self
                    .dataset
                    .airports(state)
                    .into_iter()
                    .map(|(code, city)| {
                        Element::new("Airport")
                            .with_child(Element::text_leaf("Code", code))
                            .with_child(Element::text_leaf("City", city))
                    })
                    .collect();
                Ok(nested_response(
                    "GetAirportsResponse",
                    "GetAirportsResult",
                    rows,
                ))
            }
            "GetDepartures" => {
                let code = scalar_arg(request, "airportCode")?;
                let rows = self
                    .dataset
                    .departures(code)
                    .into_iter()
                    .map(|(flight, dest)| {
                        Element::new("Departure")
                            .with_child(Element::text_leaf("FlightNo", flight))
                            .with_child(Element::text_leaf("DestCode", dest))
                    })
                    .collect();
                Ok(nested_response(
                    "GetDeparturesResponse",
                    "GetDeparturesResult",
                    rows,
                ))
            }
            "GetFlightStatus" => {
                let flight = scalar_arg(request, "flightNo")?;
                let rows = self
                    .dataset
                    .flight_status(flight)
                    .into_iter()
                    .map(|(status, delay)| {
                        Element::new("FlightStatus")
                            .with_child(Element::text_leaf("Status", status))
                            .with_child(Element::text_leaf("DelayMinutes", delay.to_string()))
                    })
                    .collect();
                Ok(nested_response(
                    "GetFlightStatusResponse",
                    "GetFlightStatusResult",
                    rows,
                ))
            }
            other => Err(format!("unknown operation {other:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::DatasetConfig;

    fn service() -> AviationService {
        AviationService::new(Arc::new(Dataset::generate(DatasetConfig::tiny())))
    }

    fn arg<'a>(name: &'static str, value: &'a str) -> [(&'a str, &'a str); 1] {
        [(name, value)]
    }

    #[test]
    fn airports_per_state() {
        let svc = service();
        let resp = svc
            .invoke("GetAirports", &Request::new(&arg("stateAbbr", "CO")))
            .unwrap();
        let result = resp.child("GetAirportsResult").unwrap();
        assert!(!result.children.is_empty());
        for airport in &result.children {
            let code = airport.child("Code").unwrap().text();
            assert!(code.starts_with("CO"), "airport code {code}");
        }
    }

    #[test]
    fn chain_is_consistent() {
        // A departure of some airport resolves to a status.
        let svc = service();
        let airports = svc
            .invoke("GetAirports", &Request::new(&arg("stateAbbr", "GA")))
            .unwrap();
        let code = airports.child("GetAirportsResult").unwrap().children[0]
            .child("Code")
            .unwrap()
            .text()
            .to_owned();
        let departures = svc
            .invoke("GetDepartures", &Request::new(&arg("airportCode", &code)))
            .unwrap();
        let flights = &departures.child("GetDeparturesResult").unwrap().children;
        assert!(!flights.is_empty());
        let flight = flights[0].child("FlightNo").unwrap().text().to_owned();
        let status = svc
            .invoke("GetFlightStatus", &Request::new(&arg("flightNo", &flight)))
            .unwrap();
        let rows = &status.child("GetFlightStatusResult").unwrap().children;
        assert_eq!(rows.len(), 1);
        let state = rows[0].child("Status").unwrap().text();
        assert!(
            ["OnTime", "Delayed", "Boarding"].contains(&state),
            "{state}"
        );
    }

    #[test]
    fn unknown_inputs_yield_empty_results() {
        let svc = service();
        for (op, arg_name) in [
            ("GetAirports", "stateAbbr"),
            ("GetDepartures", "airportCode"),
            ("GetFlightStatus", "flightNo"),
        ] {
            let resp = svc
                .invoke(op, &Request::new(&arg(arg_name, "NOPE")))
                .unwrap();
            assert!(resp
                .child(&format!("{op}Result"))
                .unwrap()
                .children
                .is_empty());
        }
    }

    #[test]
    fn wsdl_round_trips() {
        let svc = service();
        let parsed = wsmed_wsdl::parse_wsdl(&svc.wsdl().to_xml_string()).unwrap();
        assert_eq!(parsed, svc.wsdl());
        assert_eq!(parsed.operations.len(), 3);
    }
}
