//! Deterministic serialization of [`Element`] trees.
//!
//! There is one compact writer, [`write_compact_to`], and it streams into
//! any [`fmt::Write`]: a `String` ([`write_compact`], [`Element::to_xml`]),
//! a formatter (`Display`), a byte counter ([`Element::encoded_len`]) or a
//! caller's hasher. Whatever a sink derives from the stream is therefore a
//! function of exactly the bytes `to_xml` would have produced, without
//! those bytes ever being stored. [`write_leaves_to`] streams the same
//! bytes for an element of text leaves that was never built as a tree.

use std::fmt::{self, Write};

use crate::Element;

/// Serializes an element compactly, with no insignificant whitespace.
pub fn write_compact(el: &Element) -> String {
    let mut out = String::with_capacity(el.subtree_size() * 16);
    write_compact_to(el, &mut out).expect("writing to a String cannot fail");
    out
}

/// Streams the compact serialization of `el` into `out`, piece by piece and
/// in document order; fails only if `out` does.
pub fn write_compact_to<W: Write>(el: &Element, out: &mut W) -> fmt::Result {
    write_start_tag(el, out)?;
    if el.children.is_empty() && el.content.is_empty() {
        return out.write_str("/>");
    }
    out.write_char('>')?;
    write_escaped(&el.content, false, out)?;
    for child in &el.children {
        write_compact_to(child, out)?;
    }
    write_end_tag(&el.name, out)
}

/// Streams what [`write_compact_to`] writes for an element `name` whose
/// children are one [`Element::text_leaf`] per `(leaf, text)` pair, in
/// order, without that element being built: `<name><leaf>text</leaf>…</name>`.
pub fn write_leaves_to<W: Write, N: AsRef<str>, T: AsRef<str>>(
    name: &str,
    leaves: &[(N, T)],
    out: &mut W,
) -> fmt::Result {
    out.write_char('<')?;
    out.write_str(name)?;
    if leaves.is_empty() {
        return out.write_str("/>");
    }
    out.write_char('>')?;
    for (leaf, text) in leaves {
        let (leaf, text) = (leaf.as_ref(), text.as_ref());
        out.write_char('<')?;
        out.write_str(leaf)?;
        if text.is_empty() {
            out.write_str("/>")?;
        } else {
            out.write_char('>')?;
            write_escaped(text, false, out)?;
            write_end_tag(leaf, out)?;
        }
    }
    write_end_tag(name, out)
}

/// `<name k="v"…` — everything of the start tag but its closing bracket.
fn write_start_tag<W: Write>(el: &Element, out: &mut W) -> fmt::Result {
    out.write_char('<')?;
    out.write_str(&el.name)?;
    for (k, v) in &el.attributes {
        out.write_char(' ')?;
        out.write_str(k)?;
        out.write_str("=\"")?;
        write_escaped(v, true, out)?;
        out.write_char('"')?;
    }
    Ok(())
}

fn write_end_tag<W: Write>(name: &str, out: &mut W) -> fmt::Result {
    out.write_str("</")?;
    out.write_str(name)?;
    out.write_char('>')
}

/// Streams `s` with the predefined entities substituted: `< > &` always,
/// the two quotes as well inside an attribute value. Unescaped runs are
/// written as whole slices.
pub(crate) fn write_escaped<W: Write>(s: &str, attr: bool, out: &mut W) -> fmt::Result {
    let mut run_start = 0;
    for (i, b) in s.bytes().enumerate() {
        let entity = match b {
            b'<' => "&lt;",
            b'>' => "&gt;",
            b'&' => "&amp;",
            b'"' if attr => "&quot;",
            b'\'' if attr => "&apos;",
            _ => continue,
        };
        out.write_str(&s[run_start..i])?;
        out.write_str(entity)?;
        run_start = i + 1;
    }
    out.write_str(&s[run_start..])
}

/// A sink that keeps only the number of bytes written to it.
#[derive(Default)]
pub(crate) struct ByteCount(pub usize);

impl Write for ByteCount {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.0 += s.len();
        Ok(())
    }
}

/// Serializes an element with two-space indentation.
pub fn write_pretty(el: &Element) -> String {
    let mut out = String::with_capacity(el.subtree_size() * 24);
    write_el_pretty(el, 0, &mut out).expect("writing to a String cannot fail");
    out
}

fn write_indent(depth: usize, out: &mut String) -> fmt::Result {
    (0..depth).try_for_each(|_| out.write_str("  "))
}

fn write_el_pretty(el: &Element, depth: usize, out: &mut String) -> fmt::Result {
    write_indent(depth, out)?;
    write_start_tag(el, out)?;
    if el.children.is_empty() && el.content.is_empty() {
        return out.write_str("/>\n");
    }
    if el.children.is_empty() {
        // Text-only leaf stays on one line so trimming on re-parse is exact.
        out.write_char('>')?;
        write_escaped(&el.content, false, out)?;
        write_end_tag(&el.name, out)?;
        return out.write_char('\n');
    }
    out.write_str(">\n")?;
    if !el.content.is_empty() {
        write_indent(depth + 1, out)?;
        write_escaped(&el.content, false, out)?;
        out.write_char('\n')?;
    }
    for child in &el.children {
        write_el_pretty(child, depth + 1, out)?;
    }
    write_indent(depth, out)?;
    write_end_tag(&el.name, out)?;
    out.write_char('\n')
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;
    use crate::parser::tests::element_strategy;
    use proptest::prelude::*;

    /// The writer this module had before it streamed: escapes into fresh
    /// strings, pushes into one buffer. Kept as the byte-for-byte reference.
    fn reference_write_compact(el: &Element, out: &mut String) {
        fn escape(s: &str, attr: bool) -> String {
            let mut out = String::new();
            for c in s.chars() {
                match c {
                    '<' => out.push_str("&lt;"),
                    '>' => out.push_str("&gt;"),
                    '&' => out.push_str("&amp;"),
                    '"' if attr => out.push_str("&quot;"),
                    '\'' if attr => out.push_str("&apos;"),
                    _ => out.push(c),
                }
            }
            out
        }
        out.push('<');
        out.push_str(&el.name);
        for (k, v) in &el.attributes {
            out.push(' ');
            out.push_str(k);
            out.push_str("=\"");
            out.push_str(&escape(v, true));
            out.push('"');
        }
        if el.children.is_empty() && el.content.is_empty() {
            out.push_str("/>");
            return;
        }
        out.push('>');
        out.push_str(&escape(&el.content, false));
        for child in &el.children {
            reference_write_compact(child, out);
        }
        out.push_str("</");
        out.push_str(&el.name);
        out.push('>');
    }

    proptest! {
        #[test]
        fn prop_streamed_text_is_the_reference_text(el in element_strategy()) {
            let mut reference = String::new();
            reference_write_compact(&el, &mut reference);
            prop_assert_eq!(&el.to_xml(), &reference);
            prop_assert_eq!(&el.to_string(), &reference);
            prop_assert_eq!(el.encoded_len(), reference.len());
        }

        #[test]
        fn prop_streamed_leaves_are_the_built_element(
            name in "[a-c]{1,3}",
            leaves in proptest::collection::vec(("[a-c]{1,2}", "[ a-c<&>\"'\u{e9}]{0,6}"), 0..5),
        ) {
            let built = Element::new(name.clone()).with_children(
                leaves.iter().map(|(leaf, text)| Element::text_leaf(leaf.clone(), text.as_str())),
            );
            let mut streamed = String::new();
            write_leaves_to(&name, &leaves, &mut streamed).unwrap();
            prop_assert_eq!(streamed, built.to_xml());
        }
    }

    #[test]
    fn encoded_len_counts_escapes_and_multibyte_text() {
        let el = Element::text_leaf("a", "x<y & \u{e9}\u{1F600}").with_attr("k", "'v\"");
        assert_eq!(el.encoded_len(), el.to_xml().len());
        assert_eq!(Element::new("a").encoded_len(), "<a/>".len());
    }

    #[test]
    fn compact_empty_element() {
        assert_eq!(write_compact(&Element::new("a")), "<a/>");
    }

    #[test]
    fn compact_with_attrs_and_text() {
        let el = Element::text_leaf("a", "x<y").with_attr("k", "v\"w");
        assert_eq!(write_compact(&el), "<a k=\"v&quot;w\">x&lt;y</a>");
    }

    #[test]
    fn pretty_indents_children() {
        let el = Element::new("a").with_child(Element::new("b").with_child(Element::new("c")));
        let s = write_pretty(&el);
        assert_eq!(s, "<a>\n  <b>\n    <c/>\n  </b>\n</a>\n");
    }

    #[test]
    fn pretty_text_leaf_single_line() {
        let el = Element::text_leaf("a", "hello");
        assert_eq!(write_pretty(&el), "<a>hello</a>\n");
    }

    #[test]
    fn mixed_content_survives_roundtrip() {
        let el = Element::new("a")
            .with_text("note")
            .with_child(Element::text_leaf("b", "x"));
        let back = parse(&write_compact(&el)).unwrap();
        assert_eq!(back, el);
        let back2 = parse(&write_pretty(&el)).unwrap();
        assert_eq!(back2, el);
    }
}
