//! The webservicex **USZip** service: `GetInfoByState`.

use std::sync::Arc;

use wsmed_store::SqlType;
use wsmed_wsdl::WsdlDocument;
use wsmed_xml::Element;

use crate::dataset::Dataset;
use crate::soap::{scalar_arg, scalar_result_operation, Request, SoapService};

/// Simulated `http://www.webservicex.net/uszip.asmx` — returns all zip
/// codes of a state as one comma-separated string (§II.B).
#[derive(Debug, Clone)]
pub struct UsZipService {
    dataset: Arc<Dataset>,
}

impl UsZipService {
    /// WSDL URI under which the mediator imports USZip.
    pub const WSDL_URI: &'static str = "http://www.webservicex.net/uszip.wsdl";
    /// The netsim provider hosting this service.
    pub const PROVIDER: &'static str = "webservicex.net";

    /// Creates the service over a dataset.
    pub fn new(dataset: Arc<Dataset>) -> Self {
        UsZipService { dataset }
    }
}

impl SoapService for UsZipService {
    fn service_name(&self) -> &str {
        "USZip"
    }

    fn wsdl_uri(&self) -> &str {
        Self::WSDL_URI
    }

    fn provider_name(&self) -> &str {
        Self::PROVIDER
    }

    fn wsdl(&self) -> WsdlDocument {
        WsdlDocument {
            service_name: "USZip".to_owned(),
            target_namespace: "http://www.webserviceX.NET".to_owned(),
            operations: vec![scalar_result_operation(
                "GetInfoByState",
                &[("USState", SqlType::Charstring)],
                "All zip codes of a state as a comma separated string",
            )],
        }
    }

    fn invoke(&self, operation: &str, request: &Request<'_>) -> Result<Element, String> {
        if operation != "GetInfoByState" {
            return Err(format!("unknown operation {operation:?}"));
        }
        let state = scalar_arg(request, "USState")?;
        let zipstr = self.dataset.zips_for_state(state).unwrap_or_default();
        Ok(Element::new("GetInfoByStateResponse")
            .with_child(Element::text_leaf("GetInfoByStateResult", zipstr)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::DatasetConfig;
    use wsmed_store::xml_to_value;
    use wsmed_wsdl::OwfDef;

    fn service() -> UsZipService {
        UsZipService::new(Arc::new(Dataset::generate(DatasetConfig::tiny())))
    }

    fn request(state: &str) -> [(&str, &str); 1] {
        [("USState", state)]
    }

    #[test]
    fn returns_comma_separated_zips() {
        let svc = service();
        let resp = svc
            .invoke("GetInfoByState", &Request::new(&request("CO")))
            .unwrap();
        let zipstr = resp.child("GetInfoByStateResult").unwrap().text();
        let zips: Vec<&str> = zipstr.split(',').collect();
        assert_eq!(zips.len(), 3); // tiny config: 3 zips per state
        assert!(zips.contains(&"80840"));
    }

    #[test]
    fn unknown_state_yields_empty_string() {
        let svc = service();
        let resp = svc
            .invoke("GetInfoByState", &Request::new(&request("ZZ")))
            .unwrap();
        assert_eq!(resp.child("GetInfoByStateResult").unwrap().text(), "");
    }

    #[test]
    fn owf_flattens_to_single_string_row() {
        let svc = service();
        let owf = OwfDef::derive(
            svc.wsdl().operation("GetInfoByState").unwrap(),
            "USZip",
            svc.wsdl_uri(),
        )
        .unwrap();
        let resp = svc
            .invoke("GetInfoByState", &Request::new(&request("GA")))
            .unwrap();
        let rows = owf.flatten(&xml_to_value(&resp)).unwrap();
        assert_eq!(rows.len(), 1);
        assert!(rows[0].get(0).as_str().unwrap().contains(','));
    }

    #[test]
    fn missing_argument_is_error() {
        let svc = service();
        assert!(svc.invoke("GetInfoByState", &Request::default()).is_err());
    }

    #[test]
    fn wsdl_round_trips() {
        let svc = service();
        let parsed = wsmed_wsdl::parse_wsdl(&svc.wsdl().to_xml_string()).unwrap();
        assert_eq!(parsed, svc.wsdl());
    }
}
