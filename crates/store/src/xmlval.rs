//! XML ⇄ value conversion: the materialization step of the `cwo` built-in.
//!
//! The paper's Fig. 2 shows an OWF converting "the output XML structure from
//! the web service operation call into records and sequences". The rules
//! here are:
//!
//! * an element with no child elements becomes a [`Value::Str`] of its text;
//! * an element with children becomes a [`Value::Record`]; a child name that
//!   occurs once maps to its converted value, a name that repeats maps to a
//!   [`Value::Sequence`] of the converted occurrences, preserving order.
//!
//! Attributes are folded in as record fields prefixed with `@`, after the
//! child elements (SOAP payloads in the paper carry data in elements, so
//! this is a compatibility nicety).

use std::sync::Arc;

use wsmed_xml::Element;

use crate::{Record, Value};

/// Converts an XML element tree into record/sequence values.
///
/// One pass over the children, straight into a record sized for the
/// distinct names: a name's second occurrence promotes its field to a
/// [`Value::Sequence`] in place. The conversion itself never yields a bare
/// sequence, so a sequence found in a field is always such a promotion.
pub fn xml_to_value(el: &Element) -> Value {
    if el.children.is_empty() {
        return Value::str(el.text());
    }
    let children = &el.children;
    let first_of_its_name = |i: usize| {
        let name = children[i].local_name();
        children[..i].iter().all(|c| c.local_name() != name)
    };
    let distinct = (0..children.len())
        .filter(|&i| first_of_its_name(i))
        .count();
    let mut record = Record::with_capacity(distinct + el.attributes.len());
    for (i, child) in children.iter().enumerate() {
        let name = child.local_name();
        let converted = xml_to_value(child);
        match record.fields.iter_mut().find(|(n, _)| &**n == name) {
            None => record.fields.push((Arc::from(name), converted)),
            Some((_, Value::Sequence(items))) => items.push(converted),
            Some((_, slot)) => {
                // Room for every remaining sibling: rows of one name, the
                // usual reason for a repeat, then never reallocate.
                let mut items = Vec::with_capacity(children.len() - i + 1);
                items.push(std::mem::take(slot));
                items.push(converted);
                *slot = Value::Sequence(items);
            }
        }
    }
    for (k, v) in &el.attributes {
        record.set(format!("@{k}"), Value::str(v));
    }
    Value::Record(record)
}

/// Converts a value back to XML under the given element name. Inverse of
/// [`xml_to_value`] for values produced by it (attribute fields `@k` become
/// attributes again).
pub fn value_to_xml(name: &str, value: &Value) -> Element {
    match value {
        Value::Record(record) => {
            let mut el = Element::new(name.to_owned());
            for (field, v) in record.iter() {
                if let Some(attr) = field.strip_prefix('@') {
                    el.attributes.push((attr.to_owned(), v.render()));
                } else if let Value::Sequence(items) = v {
                    for item in items {
                        el.children.push(value_to_xml(field, item));
                    }
                } else {
                    el.children.push(value_to_xml(field, v));
                }
            }
            el
        }
        Value::Sequence(items) | Value::Bag(items) => {
            let mut el = Element::new(name.to_owned());
            for item in items {
                el.children.push(value_to_xml("item", item));
            }
            el
        }
        scalar => Element::text_leaf(name.to_owned(), scalar.render()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use wsmed_xml::parse;

    /// The conversion this module had before it became one pass: per-element
    /// scratch groups, then a record built from them. The reference the
    /// property test holds [`xml_to_value`] to.
    fn reference_xml_to_value(el: &Element) -> Value {
        if el.children.is_empty() {
            return Value::str(el.text());
        }
        let mut groups: Vec<(&str, Vec<Value>)> = Vec::new();
        for child in &el.children {
            let name = child.local_name();
            let converted = reference_xml_to_value(child);
            match groups.iter_mut().find(|(n, _)| *n == name) {
                Some((_, items)) => items.push(converted),
                None => groups.push((name, vec![converted])),
            }
        }
        let mut record = Record::new();
        for (name, mut items) in groups {
            let value = if items.len() == 1 {
                items.pop().expect("one item")
            } else {
                Value::Sequence(items)
            };
            record.set(name.to_owned(), value);
        }
        for (k, v) in &el.attributes {
            record.set(format!("@{k}"), Value::str(v));
        }
        Value::Record(record)
    }

    fn name_strategy() -> impl Strategy<Value = String> {
        (any::<bool>(), "[abc]").prop_map(
            |(prefixed, name)| {
                if prefixed {
                    format!("p:{name}")
                } else {
                    name
                }
            },
        )
    }

    fn attributes_strategy() -> impl Strategy<Value = Vec<(String, String)>> {
        proptest::collection::vec(("[kl]", "[ a-c<&>\"']{0,6}"), 0..3)
    }

    /// Trees over a three-letter name alphabet, so that names repeat, and
    /// repeat interleaved with others; some names carry a prefix, text
    /// needs escapes and trimming, attributes repeat too.
    fn element_strategy() -> impl Strategy<Value = Element> {
        let leaf = (name_strategy(), "[ a-c<&>\"']{0,6}", attributes_strategy()).prop_map(
            |(name, text, attributes)| Element {
                attributes,
                ..Element::text_leaf(name, text)
            },
        );
        leaf.prop_recursive(3, 40, 6, |inner| {
            (
                name_strategy(),
                proptest::collection::vec(inner, 0..6),
                attributes_strategy(),
            )
                .prop_map(|(name, children, attributes)| Element {
                    attributes,
                    ..Element::new(name).with_children(children)
                })
        })
    }

    proptest! {
        #[test]
        fn prop_one_pass_conversion_is_the_reference_conversion(el in element_strategy()) {
            prop_assert_eq!(xml_to_value(&el), reference_xml_to_value(&el));
        }
    }

    #[test]
    fn interleaved_repeats_keep_first_occurrence_order() {
        let el = parse("<R><a>1</a><b>2</b><a>3</a><c>4</c><b>5</b><a>6</a></R>").unwrap();
        let v = xml_to_value(&el);
        assert_eq!(v, reference_xml_to_value(&el));
        let r = v.as_record().unwrap();
        assert_eq!(r.names().collect::<Vec<_>>(), ["a", "b", "c"]);
        assert_eq!(r.get("a").unwrap().as_collection().unwrap().len(), 3);
        assert_eq!(r.get("c").unwrap(), &Value::str("4"));
    }

    #[test]
    fn leaf_becomes_string() {
        let el = parse("<State>Colorado</State>").unwrap();
        assert_eq!(xml_to_value(&el), Value::str("Colorado"));
    }

    #[test]
    fn unique_children_become_record() {
        let el = parse("<P><Name>Atlanta</Name><State>GA</State></P>").unwrap();
        let v = xml_to_value(&el);
        let r = v.as_record().unwrap();
        assert_eq!(r.get("Name").unwrap().as_str().unwrap(), "Atlanta");
        assert_eq!(r.get("State").unwrap().as_str().unwrap(), "GA");
    }

    #[test]
    fn repeated_children_become_sequence() {
        let el =
            parse("<R><Item>a</Item><Item>b</Item><Item>c</Item><Other>x</Other></R>").unwrap();
        let v = xml_to_value(&el);
        let r = v.as_record().unwrap();
        let seq = r.get("Item").unwrap().as_collection().unwrap();
        assert_eq!(seq.len(), 3);
        assert_eq!(seq[1], Value::str("b"));
        assert_eq!(r.get("Other").unwrap(), &Value::str("x"));
    }

    #[test]
    fn attributes_become_at_fields() {
        let el = parse("<P code=\"80840\"><Name>USAF Academy</Name></P>").unwrap();
        let v = xml_to_value(&el);
        let r = v.as_record().unwrap();
        assert_eq!(r.get("@code").unwrap().as_str().unwrap(), "80840");
    }

    #[test]
    fn nested_structure_like_getallstates() {
        // Shape of the paper's GetAllStates response (Fig. 2).
        let xml = "<GetAllStatesResponse>\
             <GetAllStatesResult>\
               <GeoPlaceDetails><Name>Alabama</Name><State>AL</State></GeoPlaceDetails>\
               <GeoPlaceDetails><Name>Alaska</Name><State>AK</State></GeoPlaceDetails>\
             </GetAllStatesResult>\
           </GetAllStatesResponse>";
        let v = xml_to_value(&parse(xml).unwrap());
        let result = v.as_record().unwrap().get("GetAllStatesResult").unwrap();
        let details = result.as_record().unwrap().get("GeoPlaceDetails").unwrap();
        let seq = details.as_collection().unwrap();
        assert_eq!(seq.len(), 2);
        assert_eq!(
            seq[0].as_record().unwrap().get("State").unwrap(),
            &Value::str("AL")
        );
    }

    #[test]
    fn value_to_xml_roundtrip() {
        let xml = "<R a=\"1\"><Item>a</Item><Item>b</Item><Name>x</Name></R>";
        let el = parse(xml).unwrap();
        let v = xml_to_value(&el);
        let back = value_to_xml("R", &v);
        // Round-trips through the value layer: converting again matches.
        assert_eq!(xml_to_value(&back), v);
    }

    #[test]
    fn empty_element_is_empty_string() {
        let el = parse("<E/>").unwrap();
        assert_eq!(xml_to_value(&el), Value::str(""));
    }
}
