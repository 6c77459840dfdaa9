//! The Microsoft **TerraService**: `GetPlaceList`.

use std::sync::Arc;

use wsmed_store::SqlType;
use wsmed_wsdl::WsdlDocument;
use wsmed_xml::Element;

use crate::dataset::Dataset;
use crate::soap::{
    bool_arg, int_arg, nested_response, nested_result_operation, scalar_arg, Request, SoapService,
};

/// Simulated `http://terraservice.net/TerraService.asmx`.
#[derive(Debug, Clone)]
pub struct TerraService {
    dataset: Arc<Dataset>,
}

impl TerraService {
    /// WSDL URI under which the mediator imports TerraService.
    pub const WSDL_URI: &'static str = "http://terraservice.net/TerraService.wsdl";
    /// The netsim provider hosting this service.
    pub const PROVIDER: &'static str = "terraservice.net";

    /// Creates the service over a dataset.
    pub fn new(dataset: Arc<Dataset>) -> Self {
        TerraService { dataset }
    }
}

impl SoapService for TerraService {
    fn service_name(&self) -> &str {
        "TerraService"
    }

    fn wsdl_uri(&self) -> &str {
        Self::WSDL_URI
    }

    fn provider_name(&self) -> &str {
        Self::PROVIDER
    }

    fn wsdl(&self) -> WsdlDocument {
        WsdlDocument {
            service_name: "TerraService".to_owned(),
            target_namespace: "http://terraservice.net/terraserver".to_owned(),
            operations: vec![nested_result_operation(
                "GetPlaceList",
                &[
                    ("placeName", SqlType::Charstring),
                    ("MaxItems", SqlType::Integer),
                    ("imagePresence", SqlType::Boolean),
                ],
                "PlaceFacts",
                &[
                    ("placename", SqlType::Charstring),
                    ("state", SqlType::Charstring),
                    ("country", SqlType::Charstring),
                    ("placeLat", SqlType::Real),
                    ("placeLon", SqlType::Real),
                    ("availableThemeMask", SqlType::Integer),
                    ("placeTypeId", SqlType::Integer),
                    ("population", SqlType::Integer),
                ],
                "Place facts for a place specification",
            )],
        }
    }

    fn invoke(&self, operation: &str, request: &Request<'_>) -> Result<Element, String> {
        if operation != "GetPlaceList" {
            return Err(format!("unknown operation {operation:?}"));
        }
        let place_name = scalar_arg(request, "placeName")?;
        let max_items = int_arg(request, "MaxItems")?;
        let image_only = bool_arg(request, "imagePresence")?;
        let rows = self
            .dataset
            .place_list(place_name, max_items, image_only)
            .into_iter()
            .map(|f| {
                Element::new("PlaceFacts")
                    .with_child(Element::text_leaf("placename", f.placename.as_str()))
                    .with_child(Element::text_leaf("state", f.state.as_str()))
                    .with_child(Element::text_leaf("country", f.country.as_str()))
                    .with_child(Element::text_leaf(
                        "placeLat",
                        format!("{:.4}", f.place_lat),
                    ))
                    .with_child(Element::text_leaf(
                        "placeLon",
                        format!("{:.4}", f.place_lon),
                    ))
                    .with_child(Element::text_leaf(
                        "availableThemeMask",
                        f.available_theme_mask.to_string(),
                    ))
                    .with_child(Element::text_leaf(
                        "placeTypeId",
                        f.place_type_id.to_string(),
                    ))
                    .with_child(Element::text_leaf("population", f.population.to_string()))
            })
            .collect();
        Ok(nested_response(
            "GetPlaceListResponse",
            "GetPlaceListResult",
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

    fn setup() -> (Arc<Dataset>, TerraService) {
        let ds = Arc::new(Dataset::generate(DatasetConfig::tiny()));
        (Arc::clone(&ds), TerraService::new(ds))
    }

    fn request(place: &str, max: i64, image: bool) -> [(&'static str, String); 3] {
        [
            ("placeName", place.to_owned()),
            ("MaxItems", max.to_string()),
            ("imagePresence", image.to_string()),
        ]
    }

    #[test]
    fn returns_facts_for_known_place() {
        let (ds, svc) = setup();
        let (name, st, _) = ds.places_within("Atlanta", "GA", 15.0, "City")[0];
        let spec = format!("{name}, {st}");
        let resp = svc
            .invoke("GetPlaceList", &Request::new(&request(&spec, 100, false)))
            .unwrap();
        let result = resp.child("GetPlaceListResult").unwrap();
        assert!(!result.children.is_empty());
        assert_eq!(result.children[0].child("placename").unwrap().text(), name);
        assert_eq!(
            result.children[0].child("country").unwrap().text(),
            "United States"
        );
    }

    #[test]
    fn unknown_place_yields_empty_result() {
        let (_, svc) = setup();
        let resp = svc
            .invoke(
                "GetPlaceList",
                &Request::new(&request("Nowhere, ZZ", 100, true)),
            )
            .unwrap();
        assert!(resp
            .child("GetPlaceListResult")
            .unwrap()
            .children
            .is_empty());
    }

    #[test]
    fn owf_flattens_typed_columns() {
        let (ds, svc) = setup();
        let (name, st, _) = ds.places_within("Atlanta", "GA", 15.0, "City")[0];
        let spec = format!("{name}, {st}");
        let owf = OwfDef::derive(
            svc.wsdl().operation("GetPlaceList").unwrap(),
            "TerraService",
            svc.wsdl_uri(),
        )
        .unwrap();
        let resp = svc
            .invoke("GetPlaceList", &Request::new(&request(&spec, 100, false)))
            .unwrap();
        let rows = owf.flatten(&xml_to_value(&resp)).unwrap();
        assert!(!rows.is_empty());
        assert!(rows[0].get(7).as_int().unwrap() >= 5_000); // population
        assert!(rows[0].get(3).as_real().is_ok()); // placeLat
    }

    #[test]
    fn bad_arguments_error() {
        let (_, svc) = setup();
        let bad = [
            ("placeName", "X"),
            ("MaxItems", "lots"),
            ("imagePresence", "true"),
        ];
        assert!(svc.invoke("GetPlaceList", &Request::new(&bad)).is_err());
        assert!(svc.invoke("Other", &Request::default()).is_err());
    }

    #[test]
    fn wsdl_round_trips() {
        let (_, svc) = setup();
        let parsed = wsmed_wsdl::parse_wsdl(&svc.wsdl().to_xml_string()).unwrap();
        assert_eq!(parsed, svc.wsdl());
    }
}
