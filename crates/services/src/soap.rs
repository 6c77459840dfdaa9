//! The SOAP-ish service trait and request helpers.
//!
//! Requests are document/literal bodies: the operation element with one
//! child element per input parameter (`<GetPlacesWithin><place>Atlanta…`).
//! A service reads one through a [`Request`], a view of the rendered
//! argument pairs, so the body is streamed onto the wire but never built as
//! a tree. Responses are the `<Op>Response` element trees the WSDL declares.
//! The SOAP envelope itself is elided — the mediator and the services agree
//! on bodies, and the envelope overhead is part of the latency model's setup
//! cost.

use wsmed_wsdl::WsdlDocument;
use wsmed_xml::Element;

/// A simulated data-providing web service.
pub trait SoapService: Send + Sync {
    /// Service name, as in the WSDL `<service name=…>`.
    fn service_name(&self) -> &str;

    /// The WSDL URI under which the mediator imports this service (the
    /// paper's `cwo` first argument, e.g.
    /// `http://codebump.com/services/PlaceLookup.wsdl`).
    fn wsdl_uri(&self) -> &str;

    /// Name of the [`wsmed_netsim`] provider that hosts this service.
    fn provider_name(&self) -> &str;

    /// The service contract.
    fn wsdl(&self) -> WsdlDocument;

    /// Executes one operation on a request body, returning the response
    /// body. Errors are human-readable strings; the registry maps them to
    /// [`wsmed_netsim::NetError::BadRequest`].
    fn invoke(&self, operation: &str, request: &Request<'_>) -> Result<Element, String>;
}

/// A request body as a service reads it: the arguments as rendered
/// `(name, text)` pairs, in parameter order. A lookup reads the pairs as the
/// body `<op><name>text</name>…</op>` would be read: the first argument
/// whose name's local part matches, its text trimmed.
#[derive(Clone, Copy)]
pub struct Request<'a> {
    args: &'a dyn ArgPairs,
}

/// Rendered `(name, text)` argument pairs, whatever strings hold them.
pub trait ArgPairs {
    /// The `i`th pair, or `None` past the last.
    fn pair(&self, i: usize) -> Option<(&str, &str)>;
}

impl<N: AsRef<str>, V: AsRef<str>> ArgPairs for &[(N, V)] {
    fn pair(&self, i: usize) -> Option<(&str, &str)> {
        self.get(i).map(|(n, v)| (n.as_ref(), v.as_ref()))
    }
}

impl<N: AsRef<str>, V: AsRef<str>, const K: usize> ArgPairs for [(N, V); K] {
    fn pair(&self, i: usize) -> Option<(&str, &str)> {
        self.get(i).map(|(n, v)| (n.as_ref(), v.as_ref()))
    }
}

impl Default for Request<'_> {
    /// A request without arguments.
    fn default() -> Self {
        const NONE: [(&str, &str); 0] = [];
        Request { args: &NONE }
    }
}

impl<'a> Request<'a> {
    /// A view of `args`.
    pub fn new(args: &'a impl ArgPairs) -> Self {
        Request { args }
    }

    /// The trimmed text of the first argument whose local name is `name`.
    pub fn arg(&self, name: &str) -> Option<&'a str> {
        (0..)
            .map_while(|i| self.args.pair(i))
            .find(|(n, _)| wsmed_xml::local_name(n) == name)
            .map(|(_, text)| text.trim())
    }
}

/// Extracts a scalar input parameter from a request body.
pub fn scalar_arg<'a>(request: &Request<'a>, name: &str) -> Result<&'a str, String> {
    request
        .arg(name)
        .ok_or_else(|| format!("missing input parameter {name:?}"))
}

/// Extracts and parses a real-valued input parameter.
pub fn real_arg(request: &Request<'_>, name: &str) -> Result<f64, String> {
    let text = scalar_arg(request, name)?;
    text.parse::<f64>()
        .map_err(|_| format!("parameter {name:?} is not a number: {text:?}"))
}

/// Extracts and parses an integer input parameter.
pub fn int_arg(request: &Request<'_>, name: &str) -> Result<i64, String> {
    let text = scalar_arg(request, name)?;
    text.parse::<i64>()
        .map_err(|_| format!("parameter {name:?} is not an integer: {text:?}"))
}

/// Extracts and parses a boolean input parameter (`true`/`false`/`1`/`0`).
pub fn bool_arg(request: &Request<'_>, name: &str) -> Result<bool, String> {
    match scalar_arg(request, name)? {
        "true" | "1" => Ok(true),
        "false" | "0" => Ok(false),
        other => Err(format!("parameter {name:?} is not a boolean: {other:?}")),
    }
}

/// Builds the standard nested result shape
/// `<Op>Response > <Op>Result > <row>*` used by all four services, matching
/// the response structure the paper's Fig. 2 flattens.
pub(crate) fn nested_result_operation(
    op: &str,
    inputs: &[(&str, wsmed_store::SqlType)],
    row_name: &str,
    columns: &[(&str, wsmed_store::SqlType)],
    doc: &str,
) -> wsmed_wsdl::OperationDef {
    use wsmed_wsdl::TypeNode;
    wsmed_wsdl::OperationDef {
        name: op.to_owned(),
        inputs: inputs.iter().map(|(n, t)| ((*n).to_owned(), *t)).collect(),
        output: TypeNode::Record {
            name: format!("{op}Response"),
            fields: vec![TypeNode::Record {
                name: format!("{op}Result"),
                fields: vec![TypeNode::Repeated {
                    element: Box::new(TypeNode::Record {
                        name: row_name.to_owned(),
                        fields: columns
                            .iter()
                            .map(|(n, t)| TypeNode::Scalar {
                                name: (*n).to_owned(),
                                ty: *t,
                            })
                            .collect(),
                    }),
                }],
            }],
        },
        doc: Some(doc.to_owned()),
    }
}

/// Builds a scalar result shape `<Op>Response > <Op>Result` (a single text
/// payload, like USZip's comma-separated zip string).
pub(crate) fn scalar_result_operation(
    op: &str,
    inputs: &[(&str, wsmed_store::SqlType)],
    doc: &str,
) -> wsmed_wsdl::OperationDef {
    use wsmed_wsdl::TypeNode;
    wsmed_wsdl::OperationDef {
        name: op.to_owned(),
        inputs: inputs.iter().map(|(n, t)| ((*n).to_owned(), *t)).collect(),
        output: TypeNode::Record {
            name: format!("{op}Response"),
            fields: vec![TypeNode::Scalar {
                name: format!("{op}Result"),
                ty: wsmed_store::SqlType::Charstring,
            }],
        },
        doc: Some(doc.to_owned()),
    }
}

/// Wraps row elements in the `<Op>Response > <Op>Result` envelope. The two
/// names are spelled out by the caller so that they are literals the tree
/// can borrow.
pub(crate) fn nested_response(
    response: &'static str,
    result: &'static str,
    rows: Vec<Element>,
) -> Element {
    Element::new(response).with_child(Element {
        children: rows,
        ..Element::new(result)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const ARGS: [(&str, &str); 5] = [
        ("place", "Atlanta"),
        ("p:distance", " 15.0\n"),
        ("max", "100"),
        ("flag", "true"),
        ("place", "Boston"),
    ];

    fn req() -> Request<'static> {
        Request::new(&ARGS)
    }

    #[test]
    fn scalar_arg_reads_text() {
        // The first match wins, as `Element::child` would pick it.
        assert_eq!(scalar_arg(&req(), "place").unwrap(), "Atlanta");
        // Names match by local name and texts are trimmed, as `text()` does.
        assert_eq!(scalar_arg(&req(), "distance").unwrap(), "15.0");
        assert!(scalar_arg(&req(), "missing")
            .unwrap_err()
            .contains("missing"));
    }

    #[test]
    fn typed_args_parse() {
        assert_eq!(real_arg(&req(), "distance").unwrap(), 15.0);
        assert_eq!(int_arg(&req(), "max").unwrap(), 100);
        assert!(bool_arg(&req(), "flag").unwrap());
        assert!(real_arg(&req(), "place").is_err());
        assert!(int_arg(&req(), "distance").is_err());
        assert!(bool_arg(&req(), "max").is_err());
    }
}
