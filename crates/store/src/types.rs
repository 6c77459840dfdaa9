//! SQL-level types used in OWF signatures.

use std::borrow::Cow;
use std::fmt;

use crate::{StoreResult, Value};

/// The scalar types appearing in OWF signatures (the paper uses
/// `Charstring` and `Real`; we add `Integer` and `Boolean` for generality).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SqlType {
    /// Character string.
    Charstring,
    /// Double-precision real.
    Real,
    /// 64-bit integer.
    Integer,
    /// Boolean.
    Boolean,
}

impl SqlType {
    /// Parses a type name as written in WSDL/XSD (`xsd:string` etc.) or in
    /// the paper's signature notation (`Charstring`).
    pub fn parse(name: &str) -> Option<SqlType> {
        let local = name.rsplit(':').next().unwrap_or(name);
        match local {
            "Charstring" | "string" => Some(SqlType::Charstring),
            "Real" | "double" | "float" | "decimal" => Some(SqlType::Real),
            "Integer" | "int" | "long" | "integer" | "short" => Some(SqlType::Integer),
            "Boolean" | "boolean" => Some(SqlType::Boolean),
            _ => None,
        }
    }

    /// Coerces a raw text payload (from XML character data) into a typed
    /// [`Value`]. Unparseable text falls back to `Value::Null` for numeric
    /// types, mirroring lenient web-service clients.
    pub fn value_from_text(self, text: &str) -> Value {
        match self {
            SqlType::Charstring => Value::str(text),
            SqlType::Real => text
                .trim()
                .parse::<f64>()
                .map(Value::Real)
                .unwrap_or(Value::Null),
            SqlType::Integer => text
                .trim()
                .parse::<i64>()
                .map(Value::Int)
                .unwrap_or(Value::Null),
            SqlType::Boolean => match text.trim() {
                "true" | "1" => Value::Bool(true),
                "false" | "0" => Value::Bool(false),
                _ => Value::Null,
            },
        }
    }

    /// Checks that a value inhabits this type (Null passes every type).
    pub fn admits(self, value: &Value) -> bool {
        matches!(
            (self, value),
            (_, Value::Null)
                | (SqlType::Charstring, Value::Str(_))
                | (SqlType::Real, Value::Real(_))
                | (SqlType::Real, Value::Int(_))
                | (SqlType::Integer, Value::Int(_))
                | (SqlType::Boolean, Value::Bool(_))
        )
    }

    /// Converts a typed value back to SOAP text. Inverse of
    /// [`SqlType::value_from_text`] for admissible values. A string is its
    /// own text and is lent, not copied.
    pub fn value_to_text(self, value: &Value) -> StoreResult<Cow<'_, str>> {
        Ok(match self {
            SqlType::Charstring => Cow::Borrowed(value.as_str()?),
            SqlType::Real => Cow::Owned(Value::Real(value.as_real()?).render()),
            SqlType::Integer => Cow::Owned(value.as_int()?.to_string()),
            SqlType::Boolean => Cow::Owned(value.as_bool()?.to_string()),
        })
    }
}

impl fmt::Display for SqlType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            SqlType::Charstring => "Charstring",
            SqlType::Real => "Real",
            SqlType::Integer => "Integer",
            SqlType::Boolean => "Boolean",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_xsd_and_paper_names() {
        assert_eq!(SqlType::parse("xsd:string"), Some(SqlType::Charstring));
        assert_eq!(SqlType::parse("Charstring"), Some(SqlType::Charstring));
        assert_eq!(SqlType::parse("s:double"), Some(SqlType::Real));
        assert_eq!(SqlType::parse("int"), Some(SqlType::Integer));
        assert_eq!(SqlType::parse("boolean"), Some(SqlType::Boolean));
        assert_eq!(SqlType::parse("xsd:dateTime"), None);
    }

    #[test]
    fn text_conversion_roundtrip() {
        assert_eq!(SqlType::Charstring.value_from_text("hi"), Value::str("hi"));
        assert_eq!(SqlType::Real.value_from_text("15.5"), Value::Real(15.5));
        assert_eq!(SqlType::Integer.value_from_text(" 42 "), Value::Int(42));
        assert_eq!(SqlType::Boolean.value_from_text("true"), Value::Bool(true));
        assert_eq!(SqlType::Real.value_from_text("oops"), Value::Null);
    }

    #[test]
    fn value_to_text_roundtrips() {
        let cases = [
            (SqlType::Charstring, Value::str("x"), "x"),
            (SqlType::Real, Value::Real(15.0), "15.0"),
            (SqlType::Integer, Value::Int(7), "7"),
            (SqlType::Boolean, Value::Bool(false), "false"),
        ];
        for (ty, v, want) in cases {
            assert_eq!(ty.value_to_text(&v).unwrap(), want);
        }
        assert!(SqlType::Real.value_to_text(&Value::str("x")).is_err());
    }

    #[test]
    fn admits_null_everywhere() {
        for ty in [
            SqlType::Charstring,
            SqlType::Real,
            SqlType::Integer,
            SqlType::Boolean,
        ] {
            assert!(ty.admits(&Value::Null));
        }
        assert!(SqlType::Real.admits(&Value::Int(1)));
        assert!(!SqlType::Integer.admits(&Value::Real(1.0)));
        assert!(!SqlType::Charstring.admits(&Value::Int(1)));
    }

    #[test]
    fn display_names() {
        assert_eq!(SqlType::Charstring.to_string(), "Charstring");
        assert_eq!(SqlType::Real.to_string(), "Real");
    }
}
