#![deny(missing_docs)]

//! # wsmed-xml
//!
//! A deliberately small XML 1.0 subset parser and writer.
//!
//! WSMED ([Sabesan & Risch, ICDE 2009]) mediates *data providing web services*:
//! SOAP-style operations whose results are nested XML trees that the mediator
//! flattens into relational tuples. This crate provides exactly the XML
//! machinery those code paths need — elements, attributes, text, comments,
//! processing instructions, and the five predefined entities — and nothing
//! else (no DTDs, no namespaces-as-objects, no external entities).
//!
//! The subset is:
//!
//! * elements with attributes (`<a b="c">…</a>`, `<a/>`)
//! * character data with `&lt; &gt; &amp; &apos; &quot;` and numeric
//!   character references (`&#10;`, `&#x1F600;`)
//! * comments (`<!-- … -->`), processing instructions (`<?xml … ?>`) and
//!   CDATA sections (`<![CDATA[ … ]]>`) — all accepted, PI/comments skipped
//! * qualified names are kept verbatim (`soap:Envelope` is a name with a
//!   colon in it; [`Element::local_name`] strips the prefix)
//!
//! Parsing is a single-pass recursive-descent scanner over the input string
//! with byte-precise error positions. Writing is deterministic and either
//! compact or pretty-printed.
//!
//! ```
//! use wsmed_xml::{Element, parse};
//!
//! let doc = parse("<states><state name='CO'>Colorado</state></states>").unwrap();
//! assert_eq!(doc.name, "states");
//! assert_eq!(doc.children[0].attr("name"), Some("CO"));
//! assert_eq!(doc.children[0].text(), "Colorado");
//! ```

mod error;
mod parser;
mod writer;

pub use error::{XmlError, XmlResult};
pub use parser::parse;
pub use writer::{write_compact, write_compact_to, write_leaves_to, write_pretty};

use std::borrow::Cow;

/// A single XML element: name, attributes, child elements and text content.
///
/// Mixed content is simplified: all character data directly inside an element
/// is concatenated into [`Element::content`] in document order, which is
/// sufficient for SOAP payloads where leaves carry text and interior nodes
/// carry children.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Element {
    /// Tag name as written, including any namespace prefix. Trees built
    /// from string literals (every simulated service's response) borrow
    /// their tag names; the parser produces owned ones.
    pub name: Cow<'static, str>,
    /// Attributes in document order.
    pub attributes: Vec<(String, String)>,
    /// Child elements in document order.
    pub children: Vec<Element>,
    /// Concatenated character data directly inside this element.
    pub content: String,
}

impl Element {
    /// Creates an empty element with the given tag name.
    pub fn new(name: impl Into<Cow<'static, str>>) -> Self {
        Element {
            name: name.into(),
            ..Default::default()
        }
    }

    /// Creates a leaf element carrying only text.
    pub fn text_leaf(name: impl Into<Cow<'static, str>>, text: impl Into<String>) -> Self {
        Element {
            name: name.into(),
            content: text.into(),
            ..Default::default()
        }
    }

    /// Builder-style: adds an attribute.
    #[must_use]
    pub fn with_attr(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.attributes.push((key.into(), value.into()));
        self
    }

    /// Builder-style: adds a child element.
    #[must_use]
    pub fn with_child(mut self, child: Element) -> Self {
        self.children.push(child);
        self
    }

    /// Builder-style: adds several children.
    #[must_use]
    pub fn with_children(mut self, children: impl IntoIterator<Item = Element>) -> Self {
        self.children.extend(children);
        self
    }

    /// Builder-style: sets the text content.
    #[must_use]
    pub fn with_text(mut self, text: impl Into<String>) -> Self {
        self.content = text.into();
        self
    }

    /// The tag name without any namespace prefix (`soap:Body` → `Body`).
    pub fn local_name(&self) -> &str {
        local_name(&self.name)
    }

    /// Looks up an attribute value by exact name.
    pub fn attr(&self, key: &str) -> Option<&str> {
        self.attributes
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Looks up an attribute by local name (ignoring any prefix).
    pub fn attr_local(&self, key: &str) -> Option<&str> {
        self.attributes
            .iter()
            .find(|(k, _)| k == key || k.rsplit(':').next() == Some(key))
            .map(|(_, v)| v.as_str())
    }

    /// The trimmed text content of this element.
    pub fn text(&self) -> &str {
        self.content.trim()
    }

    /// First child with the given local name.
    pub fn child(&self, local: &str) -> Option<&Element> {
        self.children.iter().find(|c| c.local_name() == local)
    }

    /// All children with the given local name, in document order.
    pub fn children_named<'a>(&'a self, local: &'a str) -> impl Iterator<Item = &'a Element> + 'a {
        self.children
            .iter()
            .filter(move |c| c.local_name() == local)
    }

    /// Descends through a path of local names, returning the first match at
    /// each step. `el.descend(&["Body", "GetAllStatesResponse"])`.
    pub fn descend(&self, path: &[&str]) -> Option<&Element> {
        let mut cur = self;
        for step in path {
            cur = cur.child(step)?;
        }
        Some(cur)
    }

    /// Total number of elements in this subtree, including `self`.
    pub fn subtree_size(&self) -> usize {
        1 + self
            .children
            .iter()
            .map(Element::subtree_size)
            .sum::<usize>()
    }

    /// Serializes compactly (no insignificant whitespace).
    pub fn to_xml(&self) -> String {
        write_compact(self)
    }

    /// `self.to_xml().len()`, computed without building the text.
    pub fn encoded_len(&self) -> usize {
        let mut count = writer::ByteCount::default();
        write_compact_to(self, &mut count).expect("counting cannot fail");
        count.0
    }

    /// Serializes with two-space indentation, for humans and docs.
    pub fn to_pretty_xml(&self) -> String {
        write_pretty(self)
    }
}

impl std::fmt::Display for Element {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write_compact_to(self, f)
    }
}

/// A qualified name without its namespace prefix (`soap:Body` → `Body`).
pub fn local_name(name: &str) -> &str {
    match name.rfind(':') {
        Some(i) => &name[i + 1..],
        None => name,
    }
}

/// Escapes character data for use inside element content.
pub fn escape_text(s: &str) -> String {
    escaped(s, false)
}

/// Escapes a string for use inside a double-quoted attribute value.
pub fn escape_attr(s: &str) -> String {
    escaped(s, true)
}

fn escaped(s: &str, attr: bool) -> String {
    let mut out = String::with_capacity(s.len());
    writer::write_escaped(s, attr, &mut out).expect("writing to a String cannot fail");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_roundtrip() {
        let el = Element::new("GetAllStatesResponse")
            .with_child(Element::text_leaf("State", "Colorado").with_attr("abbr", "CO"))
            .with_child(Element::text_leaf("State", "Georgia").with_attr("abbr", "GA"));
        let xml = el.to_xml();
        let back = parse(&xml).unwrap();
        assert_eq!(back, el);
    }

    #[test]
    fn local_name_strips_prefix() {
        assert_eq!(Element::new("soap:Envelope").local_name(), "Envelope");
        assert_eq!(Element::new("Envelope").local_name(), "Envelope");
        assert_eq!(Element::new("a:b:c").local_name(), "c");
    }

    #[test]
    fn attr_lookup() {
        let el = Element::new("x")
            .with_attr("xmlns:s", "urn:x")
            .with_attr("name", "v");
        assert_eq!(el.attr("name"), Some("v"));
        assert_eq!(el.attr("missing"), None);
        assert_eq!(el.attr_local("s"), Some("urn:x"));
    }

    #[test]
    fn descend_path() {
        let doc =
            parse("<Envelope><Body><Resp><Result>ok</Result></Resp></Body></Envelope>").unwrap();
        assert_eq!(
            doc.descend(&["Body", "Resp", "Result"]).unwrap().text(),
            "ok"
        );
        assert!(doc.descend(&["Body", "Nope"]).is_none());
    }

    #[test]
    fn subtree_size_counts_all() {
        let doc = parse("<a><b/><c><d/></c></a>").unwrap();
        assert_eq!(doc.subtree_size(), 4);
    }

    #[test]
    fn escape_functions() {
        assert_eq!(escape_text("a<b>&c"), "a&lt;b&gt;&amp;c");
        assert_eq!(escape_attr("\"x'\""), "&quot;x&apos;&quot;");
    }
}
