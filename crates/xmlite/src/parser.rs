//! Recursive-descent parser for the XML subset.

use crate::{Element, XmlError, XmlResult};

/// Parses a complete XML document and returns its root element.
///
/// Leading processing instructions (`<?xml …?>`) and comments are skipped.
/// Trailing content after the root element must be whitespace, comments or
/// processing instructions.
pub fn parse(input: &str) -> XmlResult<Element> {
    let mut p = Parser {
        input: input.as_bytes(),
        pos: 0,
    };
    p.skip_misc();
    let root = p.parse_element()?;
    p.skip_misc();
    if p.pos != p.input.len() {
        return Err(p.err("unexpected content after document root"));
    }
    Ok(root)
}

struct Parser<'a> {
    input: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: impl Into<String>) -> XmlError {
        XmlError::new(self.pos, msg)
    }

    fn peek(&self) -> Option<u8> {
        self.input.get(self.pos).copied()
    }

    fn starts_with(&self, s: &str) -> bool {
        self.input[self.pos..].starts_with(s.as_bytes())
    }

    fn bump(&mut self, n: usize) {
        self.pos += n;
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    /// Skips whitespace, comments and processing instructions.
    fn skip_misc(&mut self) {
        loop {
            self.skip_ws();
            if self.starts_with("<!--") {
                if let Some(end) = find(self.input, self.pos + 4, b"-->") {
                    self.pos = end + 3;
                    continue;
                }
                // Unterminated comment: consume to end; the element parser
                // will report a clean error at EOF.
                self.pos = self.input.len();
                return;
            }
            if self.starts_with("<?") {
                if let Some(end) = find(self.input, self.pos + 2, b"?>") {
                    self.pos = end + 2;
                    continue;
                }
                self.pos = self.input.len();
                return;
            }
            if self.starts_with("<!DOCTYPE") {
                // Consume to the matching '>' (no internal-subset support).
                if let Some(end) = find(self.input, self.pos, b">") {
                    self.pos = end + 1;
                    continue;
                }
                self.pos = self.input.len();
                return;
            }
            return;
        }
    }

    fn parse_name(&mut self) -> XmlResult<String> {
        let start = self.pos;
        while let Some(c) = self.peek() {
            let ok = c.is_ascii_alphanumeric()
                || c == b'_'
                || c == b'-'
                || c == b'.'
                || c == b':'
                || c >= 0x80;
            if !ok {
                break;
            }
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.err("expected a name"));
        }
        let name = std::str::from_utf8(&self.input[start..self.pos])
            .map_err(|_| self.err("name is not valid UTF-8"))?;
        if name.starts_with(|c: char| c.is_ascii_digit() || c == '-' || c == '.') {
            return Err(XmlError::new(
                start,
                format!("invalid name start in {name:?}"),
            ));
        }
        Ok(name.to_owned())
    }

    fn parse_element(&mut self) -> XmlResult<Element> {
        if self.peek() != Some(b'<') {
            return Err(self.err("expected '<'"));
        }
        self.bump(1);
        let name = self.parse_name()?;
        let mut el = Element::new(name);

        loop {
            self.skip_ws();
            match self.peek() {
                Some(b'>') => {
                    self.bump(1);
                    self.parse_children(&mut el)?;
                    return Ok(el);
                }
                Some(b'/') => {
                    self.bump(1);
                    if self.peek() != Some(b'>') {
                        return Err(self.err("expected '>' after '/'"));
                    }
                    self.bump(1);
                    return Ok(el);
                }
                Some(_) => {
                    let key = self.parse_name()?;
                    self.skip_ws();
                    if self.peek() != Some(b'=') {
                        return Err(self.err(format!("expected '=' after attribute {key:?}")));
                    }
                    self.bump(1);
                    self.skip_ws();
                    let quote = match self.peek() {
                        Some(q @ (b'"' | b'\'')) => q,
                        _ => return Err(self.err("expected quoted attribute value")),
                    };
                    self.bump(1);
                    let vstart = self.pos;
                    while let Some(c) = self.peek() {
                        if c == quote {
                            break;
                        }
                        self.pos += 1;
                    }
                    if self.peek() != Some(quote) {
                        return Err(self.err("unterminated attribute value"));
                    }
                    let raw = std::str::from_utf8(&self.input[vstart..self.pos])
                        .map_err(|_| self.err("attribute value is not valid UTF-8"))?;
                    let value = unescape(raw, vstart)?;
                    self.bump(1);
                    el.attributes.push((key, value));
                }
                None => return Err(self.err("unexpected end of input inside start tag")),
            }
        }
    }

    fn parse_children(&mut self, el: &mut Element) -> XmlResult<()> {
        loop {
            match self.peek() {
                None => return Err(self.err(format!("unclosed element <{}>", el.name))),
                Some(b'<') => {
                    if self.starts_with("</") {
                        self.bump(2);
                        let name = self.parse_name()?;
                        if name != el.name {
                            return Err(self.err(format!(
                                "mismatched end tag: expected </{}>, found </{}>",
                                el.name, name
                            )));
                        }
                        self.skip_ws();
                        if self.peek() != Some(b'>') {
                            return Err(self.err("expected '>' in end tag"));
                        }
                        self.bump(1);
                        return Ok(());
                    }
                    if self.starts_with("<!--") {
                        match find(self.input, self.pos + 4, b"-->") {
                            Some(end) => self.pos = end + 3,
                            None => return Err(self.err("unterminated comment")),
                        }
                        continue;
                    }
                    if self.starts_with("<![CDATA[") {
                        let start = self.pos + 9;
                        match find(self.input, start, b"]]>") {
                            Some(end) => {
                                let text = std::str::from_utf8(&self.input[start..end])
                                    .map_err(|_| self.err("CDATA is not valid UTF-8"))?;
                                el.content.push_str(text);
                                self.pos = end + 3;
                            }
                            None => return Err(self.err("unterminated CDATA section")),
                        }
                        continue;
                    }
                    if self.starts_with("<?") {
                        match find(self.input, self.pos + 2, b"?>") {
                            Some(end) => self.pos = end + 2,
                            None => return Err(self.err("unterminated processing instruction")),
                        }
                        continue;
                    }
                    let child = self.parse_element()?;
                    el.children.push(child);
                }
                Some(_) => {
                    let start = self.pos;
                    while let Some(c) = self.peek() {
                        if c == b'<' {
                            break;
                        }
                        self.pos += 1;
                    }
                    let raw = std::str::from_utf8(&self.input[start..self.pos])
                        .map_err(|_| self.err("text is not valid UTF-8"))?;
                    let text = unescape(raw, start)?;
                    // Keep interior whitespace but drop pure-formatting runs
                    // between child elements.
                    if !text.trim().is_empty() {
                        el.content.push_str(text.trim());
                    }
                }
            }
        }
    }
}

fn find(haystack: &[u8], from: usize, needle: &[u8]) -> Option<usize> {
    if from > haystack.len() {
        return None;
    }
    haystack[from..]
        .windows(needle.len())
        .position(|w| w == needle)
        .map(|i| i + from)
}

/// Expands the five predefined entities plus numeric character references.
fn unescape(s: &str, base: usize) -> XmlResult<String> {
    if !s.contains('&') {
        return Ok(s.to_owned());
    }
    let mut out = String::with_capacity(s.len());
    let mut rest = s;
    let mut offset = 0usize;
    while let Some(i) = rest.find('&') {
        out.push_str(&rest[..i]);
        let after = &rest[i..];
        let semi = after
            .find(';')
            .ok_or_else(|| XmlError::new(base + offset + i, "unterminated entity reference"))?;
        let entity = &after[1..semi];
        match entity {
            "lt" => out.push('<'),
            "gt" => out.push('>'),
            "amp" => out.push('&'),
            "apos" => out.push('\''),
            "quot" => out.push('"'),
            _ if entity.starts_with("#x") || entity.starts_with("#X") => {
                let code = u32::from_str_radix(&entity[2..], 16).map_err(|_| {
                    XmlError::new(base + offset + i, format!("bad hex char ref &{entity};"))
                })?;
                out.push(char::from_u32(code).ok_or_else(|| {
                    XmlError::new(base + offset + i, format!("invalid code point &{entity};"))
                })?);
            }
            _ if entity.starts_with('#') => {
                let code = entity[1..].parse::<u32>().map_err(|_| {
                    XmlError::new(
                        base + offset + i,
                        format!("bad decimal char ref &{entity};"),
                    )
                })?;
                out.push(char::from_u32(code).ok_or_else(|| {
                    XmlError::new(base + offset + i, format!("invalid code point &{entity};"))
                })?);
            }
            _ => {
                return Err(XmlError::new(
                    base + offset + i,
                    format!("unknown entity &{entity};"),
                ))
            }
        }
        offset += i + semi + 1;
        rest = &after[semi + 1..];
    }
    out.push_str(rest);
    Ok(out)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn parses_self_closing() {
        let el = parse("<empty/>").unwrap();
        assert_eq!(el.name, "empty");
        assert!(el.children.is_empty());
        assert!(el.content.is_empty());
    }

    #[test]
    fn parses_attributes_both_quotes() {
        let el = parse(r#"<a x="1" y='two'/>"#).unwrap();
        assert_eq!(el.attr("x"), Some("1"));
        assert_eq!(el.attr("y"), Some("two"));
    }

    #[test]
    fn parses_nested_and_text() {
        let el = parse("<a><b>hello</b><b>world</b></a>").unwrap();
        assert_eq!(el.children.len(), 2);
        assert_eq!(el.children[0].text(), "hello");
        assert_eq!(el.children[1].text(), "world");
    }

    #[test]
    fn skips_prolog_doctype_comments() {
        let el = parse(
            "<?xml version=\"1.0\"?><!DOCTYPE a><!-- hi -->\n<a><!-- inner -->x</a><!-- post -->",
        )
        .unwrap();
        assert_eq!(el.name, "a");
        assert_eq!(el.text(), "x");
    }

    #[test]
    fn cdata_preserved_verbatim() {
        let el = parse("<a><![CDATA[1 < 2 && 3 > 2]]></a>").unwrap();
        assert_eq!(el.text(), "1 < 2 && 3 > 2");
    }

    #[test]
    fn entities_expand() {
        let el = parse("<a>&lt;tag&gt; &amp; &quot;q&quot; &apos;s&apos; &#65;&#x42;</a>").unwrap();
        assert_eq!(el.text(), "<tag> & \"q\" 's' AB");
    }

    #[test]
    fn mismatched_tag_is_error() {
        let err = parse("<a><b></a></b>").unwrap_err();
        assert!(err.message.contains("mismatched end tag"), "{err}");
    }

    #[test]
    fn unclosed_element_is_error() {
        let err = parse("<a><b>").unwrap_err();
        assert!(err.message.contains("unclosed"), "{err}");
    }

    #[test]
    fn trailing_garbage_is_error() {
        let err = parse("<a/>junk").unwrap_err();
        assert!(err.message.contains("after document root"), "{err}");
    }

    #[test]
    fn unknown_entity_is_error() {
        let err = parse("<a>&nbsp;</a>").unwrap_err();
        assert!(err.message.contains("unknown entity"), "{err}");
    }

    #[test]
    fn attr_value_entities() {
        let el = parse(r#"<a v="&lt;&amp;&gt;"/>"#).unwrap();
        assert_eq!(el.attr("v"), Some("<&>"));
    }

    #[test]
    fn whitespace_between_children_is_dropped() {
        let el = parse("<a>\n  <b/>\n  <c/>\n</a>").unwrap();
        assert_eq!(el.children.len(), 2);
        assert!(el.content.is_empty());
    }

    #[test]
    fn prefixed_names_parse() {
        let el = parse("<soap:Envelope xmlns:soap=\"urn:x\"><soap:Body/></soap:Envelope>").unwrap();
        assert_eq!(el.local_name(), "Envelope");
        assert_eq!(el.children[0].local_name(), "Body");
    }

    #[test]
    fn name_cannot_start_with_digit() {
        assert!(parse("<1a/>").is_err());
    }

    #[test]
    fn empty_input_is_error() {
        assert!(parse("").is_err());
        assert!(parse("   \n  ").is_err());
    }

    #[test]
    fn numeric_char_ref_out_of_range_is_error() {
        assert!(parse("<a>&#x110000;</a>").is_err());
        assert!(parse("<a>&#xD800;</a>").is_err()); // lone surrogate
    }

    // ---- property tests -------------------------------------------------

    /// Strategy for element/attribute names.
    fn name_strategy() -> impl Strategy<Value = String> {
        "[A-Za-z_][A-Za-z0-9_.-]{0,12}"
    }

    /// Strategy for arbitrary text content (no control chars XML forbids).
    fn text_strategy() -> impl Strategy<Value = String> {
        "[ -~]{0,40}".prop_map(|s| s.trim().to_owned())
    }

    pub(crate) fn element_strategy() -> impl Strategy<Value = crate::Element> {
        let leaf = (
            name_strategy(),
            text_strategy(),
            proptest::collection::vec((name_strategy(), text_strategy()), 0..3),
        )
            .prop_map(|(name, text, attrs)| {
                let mut el = crate::Element::text_leaf(name, text);
                // Attribute names must be unique within an element.
                let mut seen = std::collections::HashSet::new();
                for (k, v) in attrs {
                    if seen.insert(k.clone()) {
                        el.attributes.push((k, v));
                    }
                }
                el
            });
        leaf.prop_recursive(3, 24, 4, |inner| {
            (name_strategy(), proptest::collection::vec(inner, 0..4))
                .prop_map(|(name, children)| crate::Element::new(name).with_children(children))
        })
    }

    proptest! {
        #[test]
        fn prop_compact_roundtrip(el in element_strategy()) {
            let xml = el.to_xml();
            let back = parse(&xml).unwrap();
            prop_assert_eq!(back, el);
        }

        #[test]
        fn prop_pretty_roundtrip(el in element_strategy()) {
            let xml = el.to_pretty_xml();
            let back = parse(&xml).unwrap();
            prop_assert_eq!(back, el);
        }

        #[test]
        fn prop_escape_unescape_text(s in "[ -~]{0,64}") {
            let escaped = crate::escape_text(&s);
            let back = unescape(&escaped, 0).unwrap();
            prop_assert_eq!(back, s);
        }

        #[test]
        fn prop_escape_unescape_attr(s in "[ -~]{0,64}") {
            let escaped = crate::escape_attr(&s);
            let back = unescape(&escaped, 0).unwrap();
            prop_assert_eq!(back, s);
        }

        #[test]
        fn prop_parser_never_panics(s in "[ -~<>&\"']{0,128}") {
            let _ = parse(&s); // must return Ok or Err, never panic
        }
    }
}
