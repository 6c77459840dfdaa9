#![deny(missing_docs)]

//! # wsmed-services
//!
//! Faithful stand-ins for the four public web services the paper's
//! evaluation calls (all of which disappeared from the internet long ago):
//!
//! | Paper service | Operations | Simulated provider |
//! |---|---|---|
//! | codebump GeoPlaces (`PlaceLookup.asmx`) | `GetAllStates`, `GetPlacesWithin` | [`GeoPlacesService`] |
//! | TerraServer TerraService | `GetPlaceList` | [`TerraService`] |
//! | webservicex USZip (`uszip.asmx`) | `GetInfoByState` | [`UsZipService`] |
//! | codebump ZipCodes (`ZipCodeLookup.asmx`) | `GetPlacesInside` | [`ZipCodesService`] |
//!
//! Each service publishes a WSDL document ([`SoapService::wsdl`]), accepts
//! SOAP-style XML requests, and answers with nested XML responses of the
//! same shape the paper describes (§II). The underlying data is a
//! deterministic synthetic US geography ([`Dataset`]) sized so the paper's
//! workload counts hold: Query1 issues > 300 web service calls and returns
//! ≈ 360 tuples; Query2 issues > 5000 calls (§I, §II).
//!
//! [`install_paper_services`] wires the four services onto a
//! [`wsmed_netsim::Network`] with latency/capacity parameters calibrated so
//! the *shape* of the paper's Fig. 16/17/21 reproduces (see
//! [`calibration`]).

mod aviation;
pub mod calibration;
mod dataset;
mod geoplaces;
mod registry;
mod soap;
mod terraservice;
mod uszip;
mod zipcodes;

pub use aviation::AviationService;
pub use dataset::{Dataset, DatasetConfig, PlaceFact, StateInfo};
pub use geoplaces::GeoPlacesService;
pub use registry::{install_paper_services, ServiceEndpoint, ServiceRegistry};
pub use soap::{scalar_arg, ArgPairs, Request, SoapService};
pub use terraservice::TerraService;
pub use uszip::UsZipService;
pub use zipcodes::ZipCodesService;
