//! Extending WSMED with your own data-providing web service.
//!
//! Implements a small "Census" service from scratch — WSDL contract,
//! request handling, latency profile — installs it next to the paper's
//! GeoPlaces service, and runs a dependent-join query across both with
//! adaptive parallelization. This is the path a downstream user takes to
//! mediate over services of their own.
//!
//! ```text
//! cargo run --release --example custom_service
//! ```

use std::sync::Arc;

use wsmed::core::{AdaptiveConfig, Wsmed};
use wsmed::netsim::{LatencyModel, Network, ProviderSpec, SimConfig};
use wsmed::services::{
    calibration, scalar_arg, Dataset, DatasetConfig, GeoPlacesService, Request, ServiceRegistry,
    SoapService,
};
use wsmed::store::SqlType;
use wsmed::wsdl::{OperationDef, TypeNode, WsdlDocument};
use wsmed::xml::Element;

/// A toy census bureau: population estimates per state.
struct CensusService {
    dataset: Arc<Dataset>,
}

impl CensusService {
    const WSDL_URI: &'static str = "http://census.example/CensusService.wsdl";
    const PROVIDER: &'static str = "census.example";
}

impl SoapService for CensusService {
    fn service_name(&self) -> &str {
        "Census"
    }

    fn wsdl_uri(&self) -> &str {
        Self::WSDL_URI
    }

    fn provider_name(&self) -> &str {
        Self::PROVIDER
    }

    fn wsdl(&self) -> WsdlDocument {
        WsdlDocument {
            service_name: "Census".into(),
            target_namespace: "http://census.example".into(),
            operations: vec![OperationDef {
                name: "GetPopulation".into(),
                inputs: vec![("stateAbbr".into(), SqlType::Charstring)],
                output: TypeNode::Record {
                    name: "GetPopulationResponse".into(),
                    fields: vec![TypeNode::Record {
                        name: "GetPopulationResult".into(),
                        fields: vec![TypeNode::Repeated {
                            element: Box::new(TypeNode::Record {
                                name: "Estimate".into(),
                                fields: vec![
                                    TypeNode::Scalar {
                                        name: "StateAbbr".into(),
                                        ty: SqlType::Charstring,
                                    },
                                    TypeNode::Scalar {
                                        name: "Population".into(),
                                        ty: SqlType::Integer,
                                    },
                                ],
                            }),
                        }],
                    }],
                },
                doc: Some("Population estimate for a state".into()),
            }],
        }
    }

    fn invoke(&self, operation: &str, request: &Request<'_>) -> Result<Element, String> {
        if operation != "GetPopulation" {
            return Err(format!("unknown operation {operation:?}"));
        }
        let abbr = scalar_arg(request, "stateAbbr")?;
        // A deterministic toy estimate derived from the state's position.
        let row = self
            .dataset
            .states()
            .iter()
            .position(|s| s.abbr == abbr)
            .map(|i| {
                Element::new("Estimate")
                    .with_child(Element::text_leaf("StateAbbr", abbr))
                    .with_child(Element::text_leaf(
                        "Population",
                        ((i as i64 + 1) * 731_000).to_string(),
                    ))
            });
        Ok(Element::new("GetPopulationResponse")
            .with_child(Element::new("GetPopulationResult").with_children(row)))
    }
}

fn main() {
    let network = Network::new(SimConfig::new(0.002, 7));
    let dataset = Arc::new(Dataset::generate(DatasetConfig::small()));

    // Install GeoPlaces (for GetAllStates) and our custom Census service.
    let mut registry = ServiceRegistry::new(Arc::clone(&network));
    registry.install(
        Arc::new(GeoPlacesService::new(Arc::clone(&dataset))),
        calibration::geoplaces_spec(),
    );
    registry.install(
        Arc::new(CensusService { dataset }),
        ProviderSpec::new(
            CensusService::PROVIDER,
            4, // serves four calls at full speed, degrades beyond
            LatencyModel {
                setup: 0.1,
                per_kib: 0.01,
                server_mean: 0.3,
                jitter_frac: 0.1,
            },
        )
        .with_congestion_exponent(1.2),
    );

    let mut wsmed = Wsmed::new(registry);
    wsmed
        .import_wsdl(GeoPlacesService::WSDL_URI)
        .expect("geo wsdl");
    let views = wsmed
        .import_wsdl(CensusService::WSDL_URI)
        .expect("census wsdl");
    println!("imported custom views: {views:?}");

    // A dependent join over both services: every state's population.
    let sql = "select gp.StateAbbr, gp.Population \
               from GetAllStates gs, GetPopulation gp \
               where gs.State = gp.stateAbbr";
    println!("\n{}", wsmed.explain(sql, None).expect("explain"));

    let report = wsmed
        .run_adaptive(sql, &AdaptiveConfig::default())
        .expect("adaptive run");
    println!(
        "{} rows via tree {}:",
        report.row_count(),
        report.tree.describe()
    );
    for row in report.rows.iter().take(6) {
        println!("  {row}");
    }
    assert_eq!(report.row_count(), 51);
}
