//! Operation wrapper function (OWF) generation and result flattening.
//!
//! For each imported web service operation, WSMED automatically generates an
//! OWF (Fig. 2 in the paper): a function that calls the operation via the
//! `cwo` built-in and flattens the nested XML result into a stream of typed
//! tuples. The OWF also defines an SQL **view** of the operation whose
//! columns are the input parameters followed by the flattened output columns
//! — queries constrain the input columns with equality predicates
//! (`gp.place='Atlanta'`) and read the output columns.

use wsmed_store::{xml_to_value, Schema, SqlType, StoreResult, Tuple, Value, ValueBatch};
use wsmed_xml::Element;

use crate::{OperationDef, TypeNode, WsdlError, WsdlResult};

/// How to flatten a converted response value into tuples.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlattenSpec {
    /// Record fields to descend through from the response root; sequences
    /// encountered along the way are iterated (nested-loop flattening).
    pub path: Vec<String>,
    /// What the values at the end of the path look like.
    pub leaf: LeafKind,
}

/// The shape of the values reached by [`FlattenSpec::path`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LeafKind {
    /// A record whose scalar fields become the output columns.
    Row(Vec<(String, SqlType)>),
    /// A single scalar value (one output column).
    Scalar(String, SqlType),
}

/// An operation wrapper function: the unit the parallelizer wraps in plan
/// functions and ships to query processes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OwfDef {
    /// View/function name (same as the operation name, as in the paper).
    pub name: String,
    /// Service name from the WSDL (`GeoPlaces`, `USZip`, …).
    pub service: String,
    /// URI of the WSDL document (identifies the provider on the network).
    pub wsdl_uri: String,
    /// Operation name invoked through `cwo`.
    pub operation: String,
    /// Input parameters (bound in queries via equality predicates or join
    /// dependencies — the `-` adornments).
    pub inputs: Vec<(String, SqlType)>,
    /// Flattened output columns (the `+` adornments).
    pub columns: Vec<(String, SqlType)>,
    /// How to flatten the converted response value.
    pub flatten: FlattenSpec,
}

impl OwfDef {
    /// Derives the OWF for an operation, or explains why its result shape
    /// cannot be flattened.
    pub fn derive(op: &OperationDef, service: &str, wsdl_uri: &str) -> WsdlResult<OwfDef> {
        let mut path = Vec::new();
        let mut cur: &TypeNode = &op.output;
        let leaf = loop {
            // Repetition is handled by iteration at runtime; unwrap it here.
            while let TypeNode::Repeated { element } = cur {
                cur = element;
            }
            match cur {
                TypeNode::Scalar { name, ty } => break LeafKind::Scalar(name.clone(), *ty),
                TypeNode::Record { fields, .. } if cur.is_scalar_record() => {
                    let columns = fields
                        .iter()
                        .map(|f| match f {
                            TypeNode::Scalar { name, ty } => (name.clone(), *ty),
                            _ => unreachable!("is_scalar_record guarantees scalar fields"),
                        })
                        .collect();
                    break LeafKind::Row(columns);
                }
                TypeNode::Record { name, fields } => match fields.as_slice() {
                    [] => {
                        return Err(WsdlError::NotFlattenable {
                            operation: op.name.clone(),
                            reason: format!("record {name:?} has no fields"),
                        })
                    }
                    [only] => {
                        path.push(only.name().to_owned());
                        cur = only;
                    }
                    _ => {
                        return Err(WsdlError::NotFlattenable {
                            operation: op.name.clone(),
                            reason: format!(
                                "record {name:?} branches into {} non-scalar fields",
                                fields.len()
                            ),
                        })
                    }
                },
                TypeNode::Repeated { .. } => unreachable!("repetition unwrapped above"),
            }
        };
        let columns = match &leaf {
            LeafKind::Row(cols) => cols.clone(),
            LeafKind::Scalar(name, ty) => vec![(name.clone(), *ty)],
        };
        Ok(OwfDef {
            name: op.name.clone(),
            service: service.to_owned(),
            wsdl_uri: wsdl_uri.to_owned(),
            operation: op.name.clone(),
            inputs: op.inputs.clone(),
            columns,
            flatten: FlattenSpec { path, leaf },
        })
    }

    /// Schema of the flattened output stream.
    pub fn output_schema(&self) -> Schema {
        Schema::new(
            self.columns
                .iter()
                .map(|(n, t)| (std::sync::Arc::from(n.as_str()), *t))
                .collect(),
        )
    }

    /// Schema of the SQL view: input columns first, then output columns.
    pub fn view_schema(&self) -> Schema {
        Schema::new(
            self.inputs
                .iter()
                .chain(self.columns.iter())
                .map(|(n, t)| (std::sync::Arc::from(n.as_str()), *t))
                .collect(),
        )
    }

    /// Flattens a converted response value (from
    /// [`wsmed_store::xml_to_value`] applied to the `<Op>Response` element)
    /// into output tuples, in document order.
    ///
    /// Missing fields or empty leaves yield zero rows rather than errors:
    /// a web service reporting "no matches" returns an empty result element,
    /// which the XML→value conversion renders as an empty string.
    pub fn flatten(&self, response: &Value) -> StoreResult<Vec<Tuple>> {
        let mut rows = Vec::new();
        self.flatten_node(&[], response, &mut rows);
        Ok(rows)
    }

    /// [`OwfDef::flatten`] for the γ apply operator, over a response in
    /// either form: appends to `out` one tuple per flattened row, each
    /// `prefix` (the input row's columns) followed by the row's output
    /// columns, built in one allocation. Both forms yield the same rows.
    pub fn flatten_onto(&self, prefix: &[Value], response: &Response, out: &mut Vec<Tuple>) {
        match response {
            Response::Xml(body) => self.flatten_node(prefix, body, out),
            Response::Value(value) => self.flatten_node(prefix, value, out),
        }
    }

    /// The one descent: a step of the path stands for every item of its
    /// field, and what the path reaches becomes a row, or none.
    fn flatten_node<N: Node>(&self, prefix: &[Value], response: &N, out: &mut Vec<Tuple>) {
        self.descend(&self.flatten.path, response.members(), None, prefix, out);
    }

    /// One level of the descent over `nodes`, or over those of them that are
    /// items of field `step` when the level is a field's.
    fn descend<N: Node>(
        &self,
        path: &[String],
        nodes: &[N],
        step: Option<&str>,
        prefix: &[Value],
        out: &mut Vec<Tuple>,
    ) {
        let items = nodes.iter().filter(|node| match step {
            Some(step) => node.is_item_of(step),
            None => true,
        });
        match path.split_first() {
            None => {
                out.reserve(nodes.len());
                out.extend(items.filter_map(|item| self.leaf_row(item, prefix)));
            }
            Some((next, rest)) => {
                for item in items {
                    self.descend(rest, item.field(next), Some(next), prefix, out);
                }
            }
        }
    }

    /// The row a node at the end of the path stands for, if any: an empty
    /// text (an empty result element) or a record where a scalar was
    /// declared yields none, as does a non-record where a row was declared.
    fn leaf_row<N: Node>(&self, item: &N, prefix: &[Value]) -> Option<Tuple> {
        let row_with = |columns: usize| {
            let mut values = Vec::with_capacity(prefix.len() + columns);
            values.extend_from_slice(prefix);
            values
        };
        match &self.flatten.leaf {
            LeafKind::Scalar(_, ty) => {
                let value = item.scalar(*ty)?;
                let mut values = row_with(1);
                values.push(value);
                Some(Tuple::new(values))
            }
            LeafKind::Row(cols) if item.is_record() => {
                let mut values = row_with(cols.len());
                item.columns(cols, &mut values);
                Some(Tuple::new(values))
            }
            LeafKind::Row(_) => None,
        }
    }

    /// Flattens a converted response value into a columnar [`ValueBatch`].
    ///
    /// This is the batch-at-a-time counterpart of [`OwfDef::flatten`]: every
    /// row produced by one response shares the OWF's output schema, so the
    /// flattened stream is always uniform-arity and columnarizes without a
    /// row fallback. Consumers iterate results through
    /// [`ValueBatch::row`] views or hand the batch to the columnar wire
    /// encoder whole.
    pub fn flatten_batch(&self, response: &Value) -> StoreResult<ValueBatch> {
        let rows = self.flatten(response)?;
        Ok(ValueBatch::from_tuples(&rows)
            .expect("OWF flattening always produces uniform-arity rows"))
    }
}

/// A call's response in the form the transport has it: a simulated
/// service answers with its XML body, a mock or the call cache with the
/// record/sequence value [`xml_to_value`] makes of such a body.
/// [`OwfDef::flatten_onto`] reads either form, so the XML is converted only
/// where a [`Value`] has to exist.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The service's `<Op>Response` element.
    Xml(Element),
    /// A converted record/sequence value.
    Value(Value),
}

impl Response {
    /// The response as a record/sequence value, converting the XML form.
    pub fn into_value(self) -> Value {
        match self {
            Response::Xml(body) => xml_to_value(&body),
            Response::Value(value) => value,
        }
    }
}

/// What the flattening reads of a response node, in the two forms a
/// [`Response`] takes. An [`Element`] reads as its [`xml_to_value`]
/// conversion would: with children it is a record whose fields are its
/// children by local name, without them the text leaf of its trimmed
/// content. Attributes are never read: the names a flattening looks up are
/// XSD element names, which cannot start with the `@` of an attribute field.
trait Node: Sized {
    /// Whether the node is a record.
    fn is_record(&self) -> bool;

    /// What the node stands for at the response root: a sequence's items,
    /// anything else itself.
    fn members(&self) -> &[Self];

    /// The nodes among which the items of the record field `name` are, in
    /// document order: every occurrence of a repeated field, a single one
    /// itself. Empty when the node is not a record or has no such field.
    fn field(&self, name: &str) -> &[Self];

    /// Whether this node, one of the nodes [`Node::field`] returned for
    /// `name`, is an item of that field.
    fn is_item_of(&self, name: &str) -> bool;

    /// The node as a value of type `ty`, or `None` where it stands for no
    /// row: a record, or an empty text.
    fn scalar(&self, ty: SqlType) -> Option<Value>;

    /// Appends to `values` each declared column of a record: field `name`
    /// as a value of type `ty`, null when absent, and the whole converted
    /// value where it is not a single text leaf.
    fn columns(&self, cols: &[(String, SqlType)], values: &mut Vec<Value>);
}

impl Node for Value {
    fn is_record(&self) -> bool {
        matches!(self, Value::Record(_))
    }

    fn members(&self) -> &[Self] {
        match self {
            Value::Sequence(items) | Value::Bag(items) => items,
            item => std::slice::from_ref(item),
        }
    }

    fn field(&self, name: &str) -> &[Self] {
        match self {
            Value::Record(record) => record.get_opt(name).map_or(&[], Node::members),
            _ => &[],
        }
    }

    fn is_item_of(&self, _name: &str) -> bool {
        true
    }

    fn scalar(&self, ty: SqlType) -> Option<Value> {
        match self {
            Value::Record(_) => None,
            Value::Str(s) if s.is_empty() => None,
            scalar => Some(coerce(scalar, ty)),
        }
    }

    fn columns(&self, cols: &[(String, SqlType)], values: &mut Vec<Value>) {
        values.extend(cols.iter().map(|(name, ty)| match self {
            Value::Record(record) => record.get_opt(name).map_or(Value::Null, |v| coerce(v, *ty)),
            _ => Value::Null,
        }));
    }
}

impl Node for Element {
    fn is_record(&self) -> bool {
        !self.children.is_empty()
    }

    fn members(&self) -> &[Self] {
        std::slice::from_ref(self)
    }

    fn field(&self, _name: &str) -> &[Self] {
        &self.children
    }

    fn is_item_of(&self, name: &str) -> bool {
        self.local_name() == name
    }

    fn scalar(&self, ty: SqlType) -> Option<Value> {
        let text = self.text();
        (self.children.is_empty() && !text.is_empty()).then(|| ty.value_from_text(text))
    }

    /// One pass over the children, each child's local name taken once: a
    /// column's first occurrence is its value (a text leaf read as `ty`),
    /// and a second turns it into the sequence of every occurrence's
    /// converted value, in document order. Columns go 64 at a time, one
    /// bit each for "seen" and "repeated".
    fn columns(&self, cols: &[(String, SqlType)], values: &mut Vec<Value>) {
        for window in cols.chunks(64) {
            let base = values.len();
            values.resize(base + window.len(), Value::Null);
            let (mut seen, mut repeated) = (0u64, 0u64);
            for child in &self.children {
                let local = child.local_name();
                for (j, (name, ty)) in window.iter().enumerate() {
                    if name != local {
                        continue;
                    }
                    let bit = 1u64 << j;
                    let value = &mut values[base + j];
                    if seen & bit == 0 {
                        seen |= bit;
                        *value = if child.children.is_empty() {
                            ty.value_from_text(child.text())
                        } else {
                            xml_to_value(child)
                        };
                    } else if repeated & bit == 0 {
                        repeated |= bit;
                        let first = self.children_named(local).next().expect("seen before");
                        *value = Value::Sequence(vec![xml_to_value(first), xml_to_value(child)]);
                    } else if let Value::Sequence(items) = value {
                        items.push(xml_to_value(child));
                    }
                }
            }
        }
    }
}

/// Coerces an XML-sourced value (usually a string) to its declared type.
fn coerce(value: &Value, ty: SqlType) -> Value {
    match value {
        Value::Str(s) => match ty {
            SqlType::Charstring => value.clone(),
            _ => ty.value_from_text(s),
        },
        other => other.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use wsmed_xml::parse;

    /// The flattening this module had before it became a recursive descent:
    /// a frontier vector per path step, boxed iterators over each value.
    /// The reference the property test holds [`OwfDef::flatten`] to.
    fn reference_flatten(spec: &FlattenSpec, response: &Value) -> Vec<Tuple> {
        fn iterate(value: &Value) -> Box<dyn Iterator<Item = &Value> + '_> {
            match value {
                Value::Sequence(items) | Value::Bag(items) => Box::new(items.iter()),
                other => Box::new(std::iter::once(other)),
            }
        }
        let mut frontier: Vec<&Value> = vec![response];
        for step in &spec.path {
            let mut next = Vec::new();
            for value in frontier {
                for item in iterate(value) {
                    if let Value::Record(record) = item {
                        if let Some(v) = record.get_opt(step) {
                            next.push(v);
                        }
                    }
                }
            }
            frontier = next;
        }
        let mut rows = Vec::new();
        for value in frontier {
            for item in iterate(value) {
                match (&spec.leaf, item) {
                    (LeafKind::Scalar(..), Value::Record(_)) => {}
                    (LeafKind::Scalar(..), Value::Str(s)) if s.is_empty() => {}
                    (LeafKind::Scalar(_, ty), other) => {
                        rows.push(Tuple::new(vec![coerce(other, *ty)]));
                    }
                    (LeafKind::Row(cols), Value::Record(record)) => {
                        let mut values = Vec::with_capacity(cols.len());
                        for (name, ty) in cols {
                            values.push(match record.get_opt(name) {
                                Some(v) => coerce(v, *ty),
                                None => Value::Null,
                            });
                        }
                        rows.push(Tuple::new(values));
                    }
                    (LeafKind::Row(_), _) => {}
                }
            }
        }
        rows
    }

    /// Responses over a two-letter name alphabet, so that path steps and
    /// columns hit fields, repeated and interleaved, and leaves by chance.
    /// Names may carry a `p:` prefix; elements carry attributes; texts are
    /// numeric, empty or whitespace only; an element with children may also
    /// hold text, and a column's element may have children or repeat.
    fn response_strategy() -> impl Strategy<Value = Element> {
        let name =
            (any::<bool>(), "[ab]").prop_map(
                |(prefixed, name)| {
                    if prefixed {
                        format!("p:{name}")
                    } else {
                        name
                    }
                },
            );
        let attributes = proptest::collection::vec(("[ab]", "[0-9x]{0,2}"), 0..2);
        let text = "[ 0-9x.]{0,3}";
        let leaf =
            (name.clone(), text, attributes.clone()).prop_map(|(name, text, attributes)| Element {
                attributes,
                ..Element::text_leaf(name, text)
            });
        leaf.prop_recursive(4, 64, 6, move |inner| {
            (
                name.clone(),
                proptest::collection::vec(inner, 1..6),
                text,
                attributes.clone(),
            )
                .prop_map(|(name, children, text, attributes)| Element {
                    attributes,
                    ..Element::text_leaf(name, text).with_children(children)
                })
        })
    }

    fn spec_strategy() -> impl Strategy<Value = FlattenSpec> {
        let ty = prop_oneof![
            Just(SqlType::Charstring),
            Just(SqlType::Real),
            Just(SqlType::Integer)
        ];
        let leaf = prop_oneof![
            ty.clone()
                .prop_map(|ty| LeafKind::Scalar("s".to_owned(), ty)),
            proptest::collection::vec(("[ab]", ty), 1..4).prop_map(LeafKind::Row),
        ];
        (proptest::collection::vec("[ab]", 0..3), leaf)
            .prop_map(|(path, leaf)| FlattenSpec { path, leaf })
    }

    proptest! {
        #[test]
        fn prop_descent_is_the_reference_flatten(
            response in response_strategy(),
            spec in spec_strategy(),
        ) {
            let owf = OwfDef {
                flatten: spec,
                ..OwfDef::derive(&zip_op(), "USZip", "urn:zip").unwrap()
            };
            let value = xml_to_value(&response);
            let expected = reference_flatten(&owf.flatten, &value);
            prop_assert_eq!(&owf.flatten(&value).unwrap(), &expected);

            let prefix = Tuple::new(vec![Value::Int(7), Value::str("in")]);
            let mut appended = vec![prefix.clone()];
            owf.flatten_onto(prefix.values(), &Response::Value(value), &mut appended);
            let concatenated: Vec<Tuple> = std::iter::once(prefix.clone())
                .chain(expected.iter().map(|row| prefix.concat(row)))
                .collect();
            prop_assert_eq!(appended, concatenated);
        }

        #[test]
        fn prop_xml_descent_is_the_value_descent(
            response in response_strategy(),
            spec in spec_strategy(),
        ) {
            let owf = OwfDef {
                flatten: spec,
                ..OwfDef::derive(&zip_op(), "USZip", "urn:zip").unwrap()
            };
            let prefix = [Value::Int(7), Value::str("in")];
            let mut from_value = Vec::new();
            let converted = Response::Value(xml_to_value(&response));
            owf.flatten_onto(&prefix, &converted, &mut from_value);
            let mut from_xml = Vec::new();
            owf.flatten_onto(&prefix, &Response::Xml(response), &mut from_xml);
            prop_assert_eq!(from_xml, from_value);
        }
    }

    #[test]
    fn a_row_reads_repeated_prefixed_and_duplicate_columns() {
        // `p:ToPlace` repeats (once as a record), `Name` is declared twice
        // and `Gone` is absent; declared 24 times over, the row's 96
        // columns span two 64-column windows of the one-pass read.
        let row = Element::new("p:Row").with_children([
            Element::text_leaf("p:ToPlace", "Atlanta"),
            Element::text_leaf("Name", " 12 "),
            Element::new("p:ToPlace").with_children([Element::text_leaf("Zip", "30301")]),
            Element::text_leaf("p:Miles", "4.5"),
        ]);
        let declared = [
            ("ToPlace", SqlType::Charstring),
            ("Name", SqlType::Integer),
            ("Gone", SqlType::Real),
            ("Name", SqlType::Charstring),
        ];
        let cols: Vec<(String, SqlType)> = (0..24)
            .flat_map(|_| declared.iter().map(|(n, ty)| (n.to_string(), *ty)))
            .collect();
        let owf = OwfDef {
            flatten: FlattenSpec {
                path: vec![],
                leaf: LeafKind::Row(cols),
            },
            ..OwfDef::derive(&zip_op(), "USZip", "urn:zip").unwrap()
        };
        let mut from_xml = Vec::new();
        owf.flatten_onto(&[], &Response::Xml(row.clone()), &mut from_xml);
        let expected = reference_flatten(&owf.flatten, &xml_to_value(&row));
        assert_eq!(from_xml, expected);
        assert_eq!(from_xml[0].values().len(), 96);
        assert_eq!(
            &from_xml[0].values()[64..68],
            &[
                Value::Sequence(vec![Value::str("Atlanta"), xml_to_value(&row.children[2])]),
                Value::Int(12),
                Value::Null,
                Value::str("12"),
            ]
        );
    }

    fn states_op() -> OperationDef {
        OperationDef {
            name: "GetAllStates".into(),
            inputs: vec![],
            output: TypeNode::Record {
                name: "GetAllStatesResponse".into(),
                fields: vec![TypeNode::Record {
                    name: "GetAllStatesResult".into(),
                    fields: vec![TypeNode::Repeated {
                        element: Box::new(TypeNode::Record {
                            name: "GeoPlaceDetails".into(),
                            fields: vec![
                                TypeNode::Scalar {
                                    name: "Name".into(),
                                    ty: SqlType::Charstring,
                                },
                                TypeNode::Scalar {
                                    name: "State".into(),
                                    ty: SqlType::Charstring,
                                },
                                TypeNode::Scalar {
                                    name: "LatDegrees".into(),
                                    ty: SqlType::Real,
                                },
                            ],
                        }),
                    }],
                }],
            },
            doc: None,
        }
    }

    fn zip_op() -> OperationDef {
        OperationDef {
            name: "GetInfoByState".into(),
            inputs: vec![("USState".into(), SqlType::Charstring)],
            output: TypeNode::Record {
                name: "GetInfoByStateResponse".into(),
                fields: vec![TypeNode::Scalar {
                    name: "GetInfoByStateResult".into(),
                    ty: SqlType::Charstring,
                }],
            },
            doc: None,
        }
    }

    #[test]
    fn derive_nested_record_path() {
        let owf = OwfDef::derive(&states_op(), "GeoPlaces", "urn:geo").unwrap();
        assert_eq!(
            owf.flatten.path,
            vec!["GetAllStatesResult", "GeoPlaceDetails"]
        );
        assert_eq!(
            owf.columns,
            vec![
                ("Name".to_owned(), SqlType::Charstring),
                ("State".to_owned(), SqlType::Charstring),
                ("LatDegrees".to_owned(), SqlType::Real),
            ]
        );
        assert!(matches!(owf.flatten.leaf, LeafKind::Row(_)));
    }

    #[test]
    fn derive_scalar_result() {
        let owf = OwfDef::derive(&zip_op(), "USZip", "urn:zip").unwrap();
        // The response record has a single scalar field, so it is itself the
        // row shape: no descent, one column.
        assert_eq!(owf.flatten.path, Vec::<String>::new());
        assert!(
            matches!(&owf.flatten.leaf, LeafKind::Row(cols) if cols.len() == 1 && cols[0].0 == "GetInfoByStateResult")
        );
        assert_eq!(owf.columns.len(), 1);
    }

    #[test]
    fn view_schema_is_inputs_then_outputs() {
        let owf = OwfDef::derive(&zip_op(), "USZip", "urn:zip").unwrap();
        let schema = owf.view_schema();
        assert_eq!(schema.arity(), 2);
        assert_eq!(schema.name(0), "USState");
        assert_eq!(schema.name(1), "GetInfoByStateResult");
    }

    #[test]
    fn flatten_nested_rows() {
        let owf = OwfDef::derive(&states_op(), "GeoPlaces", "urn:geo").unwrap();
        let xml = "<GetAllStatesResponse><GetAllStatesResult>\
            <GeoPlaceDetails><Name>Colorado</Name><State>CO</State><LatDegrees>39.0</LatDegrees></GeoPlaceDetails>\
            <GeoPlaceDetails><Name>Georgia</Name><State>GA</State><LatDegrees>33.0</LatDegrees></GeoPlaceDetails>\
            </GetAllStatesResult></GetAllStatesResponse>";
        let value = xml_to_value(&parse(xml).unwrap());
        let rows = owf.flatten(&value).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].get(1), &Value::str("CO"));
        assert_eq!(rows[1].get(2), &Value::Real(33.0));
    }

    #[test]
    fn flatten_batch_matches_row_flatten() {
        let owf = OwfDef::derive(&states_op(), "GeoPlaces", "urn:geo").unwrap();
        let xml = "<GetAllStatesResponse><GetAllStatesResult>\
            <GeoPlaceDetails><Name>Colorado</Name><State>CO</State><LatDegrees>39.0</LatDegrees></GeoPlaceDetails>\
            <GeoPlaceDetails><Name>Georgia</Name><LatDegrees>33.0</LatDegrees></GeoPlaceDetails>\
            </GetAllStatesResult></GetAllStatesResponse>";
        let value = xml_to_value(&parse(xml).unwrap());
        let batch = owf.flatten_batch(&value).unwrap();
        assert_eq!(batch.len(), 2);
        assert_eq!(batch.to_tuples(), owf.flatten(&value).unwrap());
        // The missing <State> becomes a null slot in a typed string column.
        assert_eq!(batch.row(1).get(1), &Value::Null);
        // An empty result flattens to an empty batch, not an error.
        let empty = xml_to_value(
            &parse("<GetAllStatesResponse><GetAllStatesResult/></GetAllStatesResponse>").unwrap(),
        );
        assert!(owf.flatten_batch(&empty).unwrap().is_empty());
    }

    #[test]
    fn flatten_single_row_when_sequence_has_one_element() {
        let owf = OwfDef::derive(&states_op(), "GeoPlaces", "urn:geo").unwrap();
        let xml = "<GetAllStatesResponse><GetAllStatesResult>\
            <GeoPlaceDetails><Name>X</Name><State>XX</State><LatDegrees>1.0</LatDegrees></GeoPlaceDetails>\
            </GetAllStatesResult></GetAllStatesResponse>";
        let value = xml_to_value(&parse(xml).unwrap());
        let rows = owf.flatten(&value).unwrap();
        assert_eq!(rows.len(), 1);
    }

    #[test]
    fn flatten_empty_result_yields_no_rows() {
        let owf = OwfDef::derive(&states_op(), "GeoPlaces", "urn:geo").unwrap();
        let value = xml_to_value(
            &parse("<GetAllStatesResponse><GetAllStatesResult/></GetAllStatesResponse>").unwrap(),
        );
        assert!(owf.flatten(&value).unwrap().is_empty());
        let value = xml_to_value(&parse("<GetAllStatesResponse/>").unwrap());
        assert!(owf.flatten(&value).unwrap().is_empty());
    }

    #[test]
    fn flatten_scalar_result() {
        let owf = OwfDef::derive(&zip_op(), "USZip", "urn:zip").unwrap();
        let value = xml_to_value(
            &parse("<GetInfoByStateResponse><GetInfoByStateResult>80840,80901</GetInfoByStateResult></GetInfoByStateResponse>").unwrap(),
        );
        let rows = owf.flatten(&value).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].get(0), &Value::str("80840,80901"));
    }

    #[test]
    fn flatten_missing_field_yields_null_column() {
        let owf = OwfDef::derive(&states_op(), "GeoPlaces", "urn:geo").unwrap();
        let xml = "<GetAllStatesResponse><GetAllStatesResult>\
            <GeoPlaceDetails><Name>X</Name></GeoPlaceDetails>\
            </GetAllStatesResult></GetAllStatesResponse>";
        let value = xml_to_value(&parse(xml).unwrap());
        let rows = owf.flatten(&value).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].get(1), &Value::Null);
        assert_eq!(rows[0].get(2), &Value::Null);
    }

    #[test]
    fn branching_record_is_not_flattenable() {
        let op = OperationDef {
            name: "Branchy".into(),
            inputs: vec![],
            output: TypeNode::Record {
                name: "BranchyResponse".into(),
                fields: vec![
                    TypeNode::Record {
                        name: "A".into(),
                        fields: vec![],
                    },
                    TypeNode::Record {
                        name: "B".into(),
                        fields: vec![],
                    },
                ],
            },
            doc: None,
        };
        let err = OwfDef::derive(&op, "S", "u").unwrap_err();
        assert!(matches!(err, WsdlError::NotFlattenable { .. }));
    }

    #[test]
    fn empty_record_is_not_flattenable() {
        let op = OperationDef {
            name: "Empty".into(),
            inputs: vec![],
            output: TypeNode::Record {
                name: "EmptyResponse".into(),
                fields: vec![],
            },
            doc: None,
        };
        assert!(matches!(
            OwfDef::derive(&op, "S", "u").unwrap_err(),
            WsdlError::NotFlattenable { .. }
        ));
    }
}
