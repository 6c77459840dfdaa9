#![deny(missing_docs)]

//! # wsmed-wsdl
//!
//! A WSDL 1.1 subset sufficient for *data providing web services*: the
//! mediator imports a WSDL document, learns each operation's input
//! parameters and nested result type, and generates an **operation wrapper
//! function (OWF)** per operation — the automatically generated view of
//! Fig. 2 in the paper that flattens the nested XML result into a stream of
//! typed tuples.
//!
//! Supported WSDL shape (matching what the simulated providers publish):
//!
//! ```text
//! <definitions name=… targetNamespace=…>
//!   <types><schema>
//!     <element name="Op">…input scalars…</element>
//!     <element name="OpResponse">…nested result tree…</element>
//!   </schema></types>
//!   <message name="OpSoapIn"><part element="Op"/></message>
//!   <message name="OpSoapOut"><part element="OpResponse"/></message>
//!   <portType name="…"><operation name="Op">
//!     <input message="OpSoapIn"/><output message="OpSoapOut"/>
//!   </operation></portType>
//!   <service name="…"/>
//! </definitions>
//! ```
//!
//! Bindings/ports are accepted and ignored — the simulated transport is
//! addressed by provider name, not by SOAP endpoint URL.

mod error;
mod model;
mod owf;
mod parser;
mod writer;

pub use error::{WsdlError, WsdlResult};
pub use model::{OperationDef, TypeNode, WsdlDocument};
pub use owf::{FlattenSpec, LeafKind, OwfDef, Response};
pub use parser::parse_wsdl;
