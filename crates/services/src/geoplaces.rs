//! The codebump **GeoPlaces** service: `GetAllStates` and `GetPlacesWithin`.

use std::sync::Arc;

use wsmed_store::SqlType;
use wsmed_wsdl::WsdlDocument;
use wsmed_xml::Element;

use crate::dataset::Dataset;
use crate::soap::{
    nested_response, nested_result_operation, real_arg, scalar_arg, Request, SoapService,
};

/// Simulated `http://codebump.com/services/PlaceLookup.asmx`.
#[derive(Debug, Clone)]
pub struct GeoPlacesService {
    dataset: Arc<Dataset>,
}

impl GeoPlacesService {
    /// The WSDL URI the paper uses for this service (Fig. 2, line 14).
    pub const WSDL_URI: &'static str = "http://codebump.com/services/PlaceLookup.wsdl";
    /// The netsim provider hosting this service.
    pub const PROVIDER: &'static str = "codebump.com/geo";

    /// Creates the service over a dataset.
    pub fn new(dataset: Arc<Dataset>) -> Self {
        GeoPlacesService { dataset }
    }

    fn get_all_states(&self) -> Element {
        let rows = self
            .dataset
            .states()
            .iter()
            .map(|s| {
                Element::new("GeoPlaceDetails")
                    .with_child(Element::text_leaf("Name", s.name.as_str()))
                    .with_child(Element::text_leaf("Type", "State"))
                    .with_child(Element::text_leaf("State", s.abbr.as_str()))
                    .with_child(Element::text_leaf("LatDegrees", format!("{}", s.lat)))
                    .with_child(Element::text_leaf("LonDegrees", format!("{}", s.lon)))
                    .with_child(Element::text_leaf(
                        "LatRadians",
                        format!("{:.6}", s.lat.to_radians()),
                    ))
                    .with_child(Element::text_leaf(
                        "LonRadians",
                        format!("{:.6}", s.lon.to_radians()),
                    ))
            })
            .collect();
        nested_response("GetAllStatesResponse", "GetAllStatesResult", rows)
    }

    fn get_places_within(&self, request: &Request<'_>) -> Result<Element, String> {
        let place = scalar_arg(request, "place")?;
        let state = scalar_arg(request, "state")?;
        let distance = real_arg(request, "distance")?;
        let kind = scalar_arg(request, "placeTypeToFind")?;
        let rows = self
            .dataset
            .places_within(place, state, distance, kind)
            .into_iter()
            .map(|(to_place, to_state, dist)| {
                Element::new("GeoPlaceDistance")
                    .with_child(Element::text_leaf("ToPlace", to_place))
                    .with_child(Element::text_leaf("ToState", to_state))
                    .with_child(Element::text_leaf("Distance", format!("{dist}")))
            })
            .collect();
        Ok(nested_response(
            "GetPlacesWithinResponse",
            "GetPlacesWithinResult",
            rows,
        ))
    }
}

impl SoapService for GeoPlacesService {
    fn service_name(&self) -> &str {
        "GeoPlaces"
    }

    fn wsdl_uri(&self) -> &str {
        Self::WSDL_URI
    }

    fn provider_name(&self) -> &str {
        Self::PROVIDER
    }

    fn wsdl(&self) -> WsdlDocument {
        WsdlDocument {
            service_name: "GeoPlaces".to_owned(),
            target_namespace: "http://codebump.com/services/PlaceLookup".to_owned(),
            operations: vec![
                nested_result_operation(
                    "GetAllStates",
                    &[],
                    "GeoPlaceDetails",
                    &[
                        ("Name", SqlType::Charstring),
                        ("Type", SqlType::Charstring),
                        ("State", SqlType::Charstring),
                        ("LatDegrees", SqlType::Real),
                        ("LonDegrees", SqlType::Real),
                        ("LatRadians", SqlType::Real),
                        ("LonRadians", SqlType::Real),
                    ],
                    "All US states",
                ),
                nested_result_operation(
                    "GetPlacesWithin",
                    &[
                        ("place", SqlType::Charstring),
                        ("state", SqlType::Charstring),
                        ("distance", SqlType::Real),
                        ("placeTypeToFind", SqlType::Charstring),
                    ],
                    "GeoPlaceDistance",
                    &[
                        ("ToPlace", SqlType::Charstring),
                        ("ToState", SqlType::Charstring),
                        ("Distance", SqlType::Real),
                    ],
                    "Places of a kind within a distance of a place",
                ),
            ],
        }
    }

    fn invoke(&self, operation: &str, request: &Request<'_>) -> Result<Element, String> {
        match operation {
            "GetAllStates" => Ok(self.get_all_states()),
            "GetPlacesWithin" => self.get_places_within(request),
            other => Err(format!("unknown operation {other:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::DatasetConfig;
    use wsmed_store::xml_to_value;
    use wsmed_wsdl::OwfDef;

    fn service() -> GeoPlacesService {
        GeoPlacesService::new(Arc::new(Dataset::generate(DatasetConfig::tiny())))
    }

    #[test]
    fn get_all_states_returns_51_rows() {
        let svc = service();
        let resp = svc.invoke("GetAllStates", &Request::default()).unwrap();
        let result = resp.child("GetAllStatesResult").unwrap();
        assert_eq!(result.children.len(), 51);
        let first = &result.children[0];
        assert_eq!(first.child("State").unwrap().text(), "AL");
        assert_eq!(first.child("Type").unwrap().text(), "State");
    }

    #[test]
    fn owf_flattens_get_all_states() {
        let svc = service();
        let wsdl = svc.wsdl();
        let owf = OwfDef::derive(
            wsdl.operation("GetAllStates").unwrap(),
            "GeoPlaces",
            svc.wsdl_uri(),
        )
        .unwrap();
        let resp = svc.invoke("GetAllStates", &Request::default()).unwrap();
        let rows = owf.flatten(&xml_to_value(&resp)).unwrap();
        assert_eq!(rows.len(), 51);
        // Column 2 is State, column 3 is LatDegrees (a Real).
        assert_eq!(rows[5].get(2).as_str().unwrap(), "CO");
        assert!(rows[5].get(3).as_real().unwrap() > 0.0);
    }

    #[test]
    fn get_places_within_round_trip() {
        let svc = service();
        let args = [
            ("place", "Atlanta"),
            ("state", "GA"),
            ("distance", "15.0"),
            ("placeTypeToFind", "City"),
        ];
        let resp = svc.invoke("GetPlacesWithin", &Request::new(&args)).unwrap();
        let result = resp.child("GetPlacesWithinResult").unwrap();
        for row in &result.children {
            assert_eq!(row.child("ToState").unwrap().text(), "GA");
            let d: f64 = row.child("Distance").unwrap().text().parse().unwrap();
            assert!(d <= 15.0);
        }
    }

    #[test]
    fn get_places_within_missing_arg_is_error() {
        let svc = service();
        assert!(svc.invoke("GetPlacesWithin", &Request::default()).is_err());
    }

    #[test]
    fn unknown_operation_is_error() {
        let svc = service();
        assert!(svc.invoke("Nope", &Request::default()).is_err());
    }

    #[test]
    fn wsdl_round_trips_through_parser() {
        let svc = service();
        let xml = svc.wsdl().to_xml_string();
        let parsed = wsmed_wsdl::parse_wsdl(&xml).unwrap();
        assert_eq!(parsed, svc.wsdl());
    }
}
