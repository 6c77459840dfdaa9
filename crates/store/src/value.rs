//! The dynamic value universe of the functional store.

use std::fmt;
use std::sync::Arc;

use crate::{StoreError, StoreResult};

/// An ordered record: attribute names mapped to values, in insertion order.
///
/// The paper accesses record attributes with the notation `r[a]` (Fig. 2);
/// [`Record::get`] is that operator.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Record {
    pub(crate) fields: Vec<(Arc<str>, Value)>,
}

impl Record {
    /// Creates an empty record.
    pub fn new() -> Self {
        Record::default()
    }

    /// Creates an empty record with room for `capacity` attributes.
    pub fn with_capacity(capacity: usize) -> Self {
        Record {
            fields: Vec::with_capacity(capacity),
        }
    }

    /// Adds or replaces an attribute.
    pub fn set(&mut self, name: impl Into<Arc<str>>, value: Value) {
        let name = name.into();
        if let Some(slot) = self.fields.iter_mut().find(|(n, _)| *n == name) {
            slot.1 = value;
        } else {
            self.fields.push((name, value));
        }
    }

    /// Builder-style [`Record::set`].
    #[must_use]
    pub fn with(mut self, name: impl Into<Arc<str>>, value: Value) -> Self {
        self.set(name, value);
        self
    }

    /// The paper's `r[a]` attribute access. Errors if absent.
    pub fn get(&self, name: &str) -> StoreResult<&Value> {
        self.fields
            .iter()
            .find(|(n, _)| &**n == name)
            .map(|(_, v)| v)
            .ok_or_else(|| StoreError::NoSuchAttribute {
                attribute: name.to_owned(),
                available: self.fields.iter().map(|(n, _)| n.to_string()).collect(),
            })
    }

    /// Attribute access returning `None` if absent.
    pub fn get_opt(&self, name: &str) -> Option<&Value> {
        self.fields
            .iter()
            .find(|(n, _)| &**n == name)
            .map(|(_, v)| v)
    }

    /// Attribute names in insertion order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.fields.iter().map(|(n, _)| &**n)
    }

    /// Attribute count.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// True if the record has no attributes.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// Iterates over `(name, value)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Value)> {
        self.fields.iter().map(|(n, v)| (&**n, v))
    }
}

impl FromIterator<(Arc<str>, Value)> for Record {
    fn from_iter<T: IntoIterator<Item = (Arc<str>, Value)>>(iter: T) -> Self {
        let mut r = Record::new();
        for (n, v) in iter {
            r.set(n, v);
        }
        r
    }
}

/// A dynamic value: the universe the OWFs and helping functions operate on.
#[derive(Debug, Clone, Default, PartialEq)]
pub enum Value {
    /// Absent / SQL NULL.
    #[default]
    Null,
    /// `Charstring` in the paper's signatures.
    Str(Arc<str>),
    /// `Real` in the paper's signatures.
    Real(f64),
    /// Integer.
    Int(i64),
    /// Boolean.
    Bool(bool),
    /// A record (attribute → value).
    Record(Record),
    /// An ordered sequence of values.
    Sequence(Vec<Value>),
    /// An unordered bag of values (kept in arrival order).
    Bag(Vec<Value>),
}

impl Value {
    /// Convenience constructor for strings.
    pub fn str(s: impl AsRef<str>) -> Value {
        Value::Str(Arc::from(s.as_ref()))
    }

    /// Short description of the value's kind, for error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            Value::Null => "Null",
            Value::Str(_) => "Charstring",
            Value::Real(_) => "Real",
            Value::Int(_) => "Integer",
            Value::Bool(_) => "Boolean",
            Value::Record(_) => "Record",
            Value::Sequence(_) => "Sequence",
            Value::Bag(_) => "Bag",
        }
    }

    /// Extracts a string slice, or errors with a type mismatch.
    pub fn as_str(&self) -> StoreResult<&str> {
        match self {
            Value::Str(s) => Ok(s),
            other => Err(StoreError::TypeMismatch {
                expected: "Charstring".into(),
                actual: other.kind().into(),
            }),
        }
    }

    /// Extracts a real, coercing integers.
    pub fn as_real(&self) -> StoreResult<f64> {
        match self {
            Value::Real(r) => Ok(*r),
            Value::Int(i) => Ok(*i as f64),
            other => Err(StoreError::TypeMismatch {
                expected: "Real".into(),
                actual: other.kind().into(),
            }),
        }
    }

    /// Extracts an integer.
    pub fn as_int(&self) -> StoreResult<i64> {
        match self {
            Value::Int(i) => Ok(*i),
            other => Err(StoreError::TypeMismatch {
                expected: "Integer".into(),
                actual: other.kind().into(),
            }),
        }
    }

    /// Extracts a boolean. Accepts the strings `"true"`/`"false"` since SOAP
    /// payloads carry booleans as text.
    pub fn as_bool(&self) -> StoreResult<bool> {
        match self {
            Value::Bool(b) => Ok(*b),
            Value::Str(s) if &**s == "true" => Ok(true),
            Value::Str(s) if &**s == "false" => Ok(false),
            other => Err(StoreError::TypeMismatch {
                expected: "Boolean".into(),
                actual: other.kind().into(),
            }),
        }
    }

    /// Extracts a record reference.
    pub fn as_record(&self) -> StoreResult<&Record> {
        match self {
            Value::Record(r) => Ok(r),
            other => Err(StoreError::TypeMismatch {
                expected: "Record".into(),
                actual: other.kind().into(),
            }),
        }
    }

    /// Extracts the elements of a sequence or bag.
    pub fn as_collection(&self) -> StoreResult<&[Value]> {
        match self {
            Value::Sequence(items) | Value::Bag(items) => Ok(items),
            other => Err(StoreError::TypeMismatch {
                expected: "Sequence or Bag".into(),
                actual: other.kind().into(),
            }),
        }
    }

    /// Renders the value the way SOAP payloads and CSV output expect:
    /// strings bare, reals with minimal digits, `Null` as the empty string.
    pub fn render(&self) -> String {
        match self {
            Value::Null => String::new(),
            Value::Str(s) => s.to_string(),
            Value::Real(r) => {
                if r.fract() == 0.0 && r.abs() < 1e15 {
                    format!("{:.1}", r)
                } else {
                    format!("{}", r)
                }
            }
            Value::Int(i) => i.to_string(),
            Value::Bool(b) => b.to_string(),
            Value::Record(_) | Value::Sequence(_) | Value::Bag(_) => format!("{self}"),
        }
    }

    /// Total ordering for deterministic sorting of heterogeneous results
    /// (used when comparing bags in tests). Orders first by kind, then by
    /// content; reals use IEEE total ordering.
    pub fn total_cmp(&self, other: &Value) -> std::cmp::Ordering {
        use std::cmp::Ordering;
        fn rank(v: &Value) -> u8 {
            match v {
                Value::Null => 0,
                Value::Bool(_) => 1,
                Value::Int(_) => 2,
                Value::Real(_) => 3,
                Value::Str(_) => 4,
                Value::Record(_) => 5,
                Value::Sequence(_) => 6,
                Value::Bag(_) => 7,
            }
        }
        match (self, other) {
            (Value::Null, Value::Null) => Ordering::Equal,
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Real(a), Value::Real(b)) => a.total_cmp(b),
            (Value::Str(a), Value::Str(b)) => a.cmp(b),
            (Value::Record(a), Value::Record(b)) => {
                let la: Vec<_> = a.iter().collect();
                let lb: Vec<_> = b.iter().collect();
                for ((na, va), (nb, vb)) in la.iter().zip(lb.iter()) {
                    match na.cmp(nb).then_with(|| va.total_cmp(vb)) {
                        Ordering::Equal => continue,
                        ord => return ord,
                    }
                }
                la.len().cmp(&lb.len())
            }
            (Value::Sequence(a), Value::Sequence(b)) | (Value::Bag(a), Value::Bag(b)) => {
                for (x, y) in a.iter().zip(b.iter()) {
                    match x.total_cmp(y) {
                        Ordering::Equal => continue,
                        ord => return ord,
                    }
                }
                a.len().cmp(&b.len())
            }
            (a, b) => rank(a).cmp(&rank(b)),
        }
    }
}

/// `Display` writes a Lisp-ish literal notation used in logs and EXPLAIN
/// output: `"str"`, `3.5`, `{a: 1, b: "x"}`, `[1, 2]`, `bag(1, 2)`.
impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "null"),
            Value::Str(s) => write!(f, "{s:?}"),
            Value::Real(r) => write!(f, "{r}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Record(r) => {
                write!(f, "{{")?;
                for (i, (n, v)) in r.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{n}: {v}")?;
                }
                write!(f, "}}")
            }
            Value::Sequence(items) => {
                write!(f, "[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "]")
            }
            Value::Bag(items) => {
                write!(f, "bag(")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, ")")
            }
        }
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::str(s)
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(Arc::from(s.as_str()))
    }
}

impl From<f64> for Value {
    fn from(r: f64) -> Self {
        Value::Real(r)
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_set_get() {
        let mut r = Record::new();
        r.set("State", Value::str("CO"));
        r.set("Lat", Value::Real(39.0));
        assert_eq!(r.get("State").unwrap().as_str().unwrap(), "CO");
        assert_eq!(r.get("Lat").unwrap().as_real().unwrap(), 39.0);
        let err = r.get("Missing").unwrap_err();
        assert!(matches!(err, StoreError::NoSuchAttribute { .. }));
    }

    #[test]
    fn record_set_replaces_in_place() {
        let mut r = Record::new();
        r.set("a", Value::Int(1));
        r.set("b", Value::Int(2));
        r.set("a", Value::Int(3));
        assert_eq!(r.len(), 2);
        assert_eq!(r.get("a").unwrap().as_int().unwrap(), 3);
        assert_eq!(r.names().collect::<Vec<_>>(), vec!["a", "b"]);
    }

    #[test]
    fn coercions() {
        assert_eq!(Value::Int(3).as_real().unwrap(), 3.0);
        assert!(Value::str("x").as_real().is_err());
        assert!(Value::str("true").as_bool().unwrap());
        assert!(!Value::str("false").as_bool().unwrap());
        assert!(Value::str("TRUE").as_bool().is_err());
    }

    #[test]
    fn render_formats() {
        assert_eq!(Value::str("hi").render(), "hi");
        assert_eq!(Value::Real(15.0).render(), "15.0");
        assert_eq!(Value::Real(2.75).render(), "2.75");
        assert_eq!(Value::Int(42).render(), "42");
        assert_eq!(Value::Null.render(), "");
        assert_eq!(Value::Bool(true).render(), "true");
    }

    #[test]
    fn display_notation() {
        let v = Value::Record(
            Record::new()
                .with("a", Value::Int(1))
                .with("b", Value::Sequence(vec![Value::str("x"), Value::Null])),
        );
        assert_eq!(v.to_string(), "{a: 1, b: [\"x\", null]}");
        assert_eq!(Value::Bag(vec![Value::Int(1)]).to_string(), "bag(1)");
    }

    #[test]
    fn total_cmp_is_total_and_consistent() {
        use std::cmp::Ordering;
        let vals = vec![
            Value::Null,
            Value::Bool(false),
            Value::Int(-1),
            Value::Real(f64::NAN),
            Value::Real(1.5),
            Value::str("a"),
            Value::Sequence(vec![Value::Int(1)]),
        ];
        for a in &vals {
            assert_eq!(a.total_cmp(a), Ordering::Equal);
            for b in &vals {
                let ab = a.total_cmp(b);
                let ba = b.total_cmp(a);
                assert_eq!(ab, ba.reverse(), "antisymmetry violated for {a} vs {b}");
            }
        }
    }

    #[test]
    fn collection_access() {
        let s = Value::Sequence(vec![Value::Int(1), Value::Int(2)]);
        assert_eq!(s.as_collection().unwrap().len(), 2);
        let b = Value::Bag(vec![Value::Int(1)]);
        assert_eq!(b.as_collection().unwrap().len(), 1);
        assert!(Value::Int(1).as_collection().is_err());
    }

    #[test]
    fn from_impls() {
        assert_eq!(Value::from("x"), Value::str("x"));
        assert_eq!(Value::from(1.5), Value::Real(1.5));
        assert_eq!(Value::from(7i64), Value::Int(7));
        assert_eq!(Value::from(true), Value::Bool(true));
        assert_eq!(Value::from(String::from("y")), Value::str("y"));
    }
}
