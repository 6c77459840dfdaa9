//! The codebump **ZipCodes** service: `GetPlacesInside`.

use std::sync::Arc;

use wsmed_store::SqlType;
use wsmed_wsdl::WsdlDocument;
use wsmed_xml::Element;

use crate::dataset::Dataset;
use crate::soap::{nested_response, nested_result_operation, scalar_arg, Request, SoapService};

/// Simulated `http://codebump.com/services/ZipCodeLookup.asmx` — the places
/// located inside a zip code area (§II.B).
#[derive(Debug, Clone)]
pub struct ZipCodesService {
    dataset: Arc<Dataset>,
}

impl ZipCodesService {
    /// WSDL URI under which the mediator imports ZipCodes.
    pub const WSDL_URI: &'static str = "http://codebump.com/services/ZipCodeLookup.wsdl";
    /// The netsim provider hosting this service (distinct from GeoPlaces so
    /// the two codebump services saturate independently, as the paper's
    /// per-service measurements imply).
    pub const PROVIDER: &'static str = "codebump.com/zip";

    /// Creates the service over a dataset.
    pub fn new(dataset: Arc<Dataset>) -> Self {
        ZipCodesService { dataset }
    }
}

impl SoapService for ZipCodesService {
    fn service_name(&self) -> &str {
        "ZipCodes"
    }

    fn wsdl_uri(&self) -> &str {
        Self::WSDL_URI
    }

    fn provider_name(&self) -> &str {
        Self::PROVIDER
    }

    fn wsdl(&self) -> WsdlDocument {
        WsdlDocument {
            service_name: "ZipCodes".to_owned(),
            target_namespace: "http://codebump.com/services/ZipCodeLookup".to_owned(),
            operations: vec![nested_result_operation(
                "GetPlacesInside",
                &[("zip", SqlType::Charstring)],
                "GeoPlaceDistance",
                &[
                    ("ToPlace", SqlType::Charstring),
                    ("ToState", SqlType::Charstring),
                    ("Distance", SqlType::Real),
                ],
                "Places located inside a zip code area",
            )],
        }
    }

    fn invoke(&self, operation: &str, request: &Request<'_>) -> Result<Element, String> {
        if operation != "GetPlacesInside" {
            return Err(format!("unknown operation {operation:?}"));
        }
        let zip = scalar_arg(request, "zip")?;
        let rows = self
            .dataset
            .places_inside(zip)
            .into_iter()
            .map(|(place, state, dist)| {
                Element::new("GeoPlaceDistance")
                    .with_child(Element::text_leaf("ToPlace", place))
                    .with_child(Element::text_leaf("ToState", state))
                    .with_child(Element::text_leaf("Distance", format!("{dist}")))
            })
            .collect();
        Ok(nested_response(
            "GetPlacesInsideResponse",
            "GetPlacesInsideResult",
            rows,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::DatasetConfig;
    use wsmed_store::xml_to_value;
    use wsmed_wsdl::OwfDef;

    fn service() -> ZipCodesService {
        ZipCodesService::new(Arc::new(Dataset::generate(DatasetConfig::tiny())))
    }

    fn request(zip: &str) -> [(&str, &str); 1] {
        [("zip", zip)]
    }

    #[test]
    fn usaf_academy_zip() {
        let svc = service();
        let resp = svc
            .invoke("GetPlacesInside", &Request::new(&request("80840")))
            .unwrap();
        let result = resp.child("GetPlacesInsideResult").unwrap();
        let places: Vec<&str> = result
            .children
            .iter()
            .map(|r| r.child("ToPlace").unwrap().text())
            .collect();
        assert!(places.contains(&"USAF Academy"));
        assert_eq!(result.children[0].child("ToState").unwrap().text(), "CO");
    }

    #[test]
    fn unknown_zip_yields_empty() {
        let svc = service();
        let resp = svc
            .invoke("GetPlacesInside", &Request::new(&request("99999")))
            .unwrap();
        assert!(resp
            .child("GetPlacesInsideResult")
            .unwrap()
            .children
            .is_empty());
    }

    #[test]
    fn owf_flattens_rows() {
        let svc = service();
        let owf = OwfDef::derive(
            svc.wsdl().operation("GetPlacesInside").unwrap(),
            "ZipCodes",
            svc.wsdl_uri(),
        )
        .unwrap();
        let resp = svc
            .invoke("GetPlacesInside", &Request::new(&request("80840")))
            .unwrap();
        let rows = owf.flatten(&xml_to_value(&resp)).unwrap();
        assert!(!rows.is_empty());
        assert_eq!(rows[0].get(0).as_str().unwrap(), "USAF Academy");
        assert!(rows[0].get(2).as_real().is_ok());
    }

    #[test]
    fn missing_zip_argument_is_error() {
        let svc = service();
        assert!(svc.invoke("GetPlacesInside", &Request::default()).is_err());
    }

    #[test]
    fn wsdl_round_trips() {
        let svc = service();
        let parsed = wsmed_wsdl::parse_wsdl(&svc.wsdl().to_xml_string()).unwrap();
        assert_eq!(parsed, svc.wsdl());
    }
}
