//! Scalar values and their data types.
//!
//! TelegraphCQ's example schema (`ClosingStockPrices`) uses longs, fixed
//! chars and floats; we support a compact set of scalar types sufficient
//! for the paper's workloads: 64-bit integers, 64-bit floats, strings,
//! booleans and timestamps, plus SQL `NULL`.

use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

use crate::time::Timestamp;

/// The type of a [`Value`], used in schemas and by the analyzer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// SQL NULL's type; compatible with every other type.
    Null,
    /// Boolean.
    Bool,
    /// 64-bit signed integer (`long` in the paper's schema).
    Int,
    /// 64-bit IEEE float (`float closingPrice`).
    Float,
    /// UTF-8 string (`char(4) stockSymbol`).
    Str,
    /// A timestamp in some time domain.
    Timestamp,
}

impl DataType {
    /// Whether a value of type `other` can be used where `self` is
    /// expected. NULL is compatible with everything, and ints coerce to
    /// floats.
    pub fn accepts(self, other: DataType) -> bool {
        self == other
            || other == DataType::Null
            || self == DataType::Null
            || (self == DataType::Float && other == DataType::Int)
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DataType::Null => "NULL",
            DataType::Bool => "BOOL",
            DataType::Int => "INT",
            DataType::Float => "FLOAT",
            DataType::Str => "STRING",
            DataType::Timestamp => "TIMESTAMP",
        };
        f.write_str(s)
    }
}

/// A single scalar value.
///
/// Strings are reference-counted so that cloning a value (which happens on
/// every join concatenation) is cheap.
#[derive(Debug, Clone)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// Boolean.
    Bool(bool),
    /// 64-bit integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// UTF-8 string.
    Str(Arc<str>),
    /// Timestamp (logical or physical; see [`crate::time`]).
    Ts(Timestamp),
}

impl Value {
    /// Construct a string value from anything string-like.
    pub fn str(s: impl AsRef<str>) -> Value {
        Value::Str(Arc::from(s.as_ref()))
    }

    /// The [`DataType`] of this value.
    pub fn data_type(&self) -> DataType {
        match self {
            Value::Null => DataType::Null,
            Value::Bool(_) => DataType::Bool,
            Value::Int(_) => DataType::Int,
            Value::Float(_) => DataType::Float,
            Value::Str(_) => DataType::Str,
            Value::Ts(_) => DataType::Timestamp,
        }
    }

    /// True iff this is SQL NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Integer view, coercing from Bool; `None` for other types.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            Value::Bool(b) => Some(*b as i64),
            _ => None,
        }
    }

    /// Float view, coercing from Int; `None` for other types.
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Value::Float(f) => Some(*f),
            Value::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// Boolean view; `None` for non-booleans.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// String view; `None` for non-strings.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// SQL three-valued comparison. Returns `None` when either side is
    /// NULL or the types are incomparable (e.g. string vs int), mirroring
    /// SQL's `UNKNOWN`.
    pub fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        match (self, other) {
            (Value::Null, _) | (_, Value::Null) => None,
            (Value::Bool(a), Value::Bool(b)) => Some(a.cmp(b)),
            (Value::Int(a), Value::Int(b)) => Some(a.cmp(b)),
            (Value::Str(a), Value::Str(b)) => Some(a.as_ref().cmp(b.as_ref())),
            (Value::Ts(a), Value::Ts(b)) => a.partial_cmp(b),
            // Numeric cross-type comparison goes through f64.
            (a, b) => {
                let (x, y) = (a.as_float()?, b.as_float()?);
                x.partial_cmp(&y)
            }
        }
    }

    /// Equality usable as a hash-join key: NULL never equals anything
    /// (including NULL), and Int/Float compare numerically.
    pub fn sql_eq(&self, other: &Value) -> bool {
        self.sql_cmp(other) == Some(Ordering::Equal)
    }

    /// A hashable normalized form of this value for use as a grouping or
    /// join key. Floats are normalized through their bit pattern after
    /// canonicalizing -0.0, and integer-valued floats hash like ints so
    /// that `Int(2)` and `Float(2.0)` land in the same bucket (they are
    /// `sql_eq`).
    pub fn key_bytes(&self) -> KeyRepr {
        match self {
            Value::Null => KeyRepr::Null,
            Value::Bool(b) => KeyRepr::Int(*b as i64),
            Value::Int(i) => KeyRepr::Int(*i),
            Value::Float(f) => {
                if f.fract() == 0.0 && *f >= i64::MIN as f64 && *f <= i64::MAX as f64 {
                    KeyRepr::Int(*f as i64)
                } else {
                    let canon = if *f == 0.0 { 0.0 } else { *f };
                    KeyRepr::FloatBits(canon.to_bits())
                }
            }
            Value::Str(s) => KeyRepr::Str(s.clone()),
            Value::Ts(t) => KeyRepr::Int(t.ticks()),
        }
    }
}

/// Normalized key representation: hashable and equality-consistent with
/// [`Value::sql_eq`] for non-NULL values.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum KeyRepr {
    /// NULL key (never joins, but groups into its own bucket for GROUP BY).
    Null,
    /// Integer-like key.
    Int(i64),
    /// Non-integral float via bit pattern.
    FloatBits(u64),
    /// String key.
    Str(Arc<str>),
}

impl PartialEq for Value {
    /// Structural equality (NULL == NULL here), used by tests and
    /// containers. Query evaluation must use [`Value::sql_eq`].
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Value::Null, Value::Null) => true,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Float(a), Value::Float(b)) => a.to_bits() == b.to_bits(),
            (Value::Str(a), Value::Str(b)) => a == b,
            (Value::Ts(a), Value::Ts(b)) => a == b,
            _ => false,
        }
    }
}

impl Eq for Value {}

impl std::hash::Hash for Value {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.key_bytes().hash(state);
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("NULL"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "{s}"),
            Value::Ts(t) => write!(f, "{t}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::str(v)
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::str(v)
    }
}

impl From<Timestamp> for Value {
    fn from(v: Timestamp) -> Self {
        Value::Ts(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::{TimeDomain, Timestamp};

    #[test]
    fn data_type_display_and_accepts() {
        assert_eq!(DataType::Int.to_string(), "INT");
        assert!(DataType::Float.accepts(DataType::Int));
        assert!(!DataType::Int.accepts(DataType::Float));
        assert!(DataType::Str.accepts(DataType::Null));
        assert!(DataType::Null.accepts(DataType::Str));
    }

    #[test]
    fn sql_cmp_basic() {
        assert_eq!(Value::Int(1).sql_cmp(&Value::Int(2)), Some(Ordering::Less));
        assert_eq!(
            Value::str("a").sql_cmp(&Value::str("b")),
            Some(Ordering::Less)
        );
        assert_eq!(Value::Null.sql_cmp(&Value::Int(1)), None);
        assert_eq!(Value::Int(1).sql_cmp(&Value::Null), None);
    }

    #[test]
    fn sql_cmp_numeric_coercion() {
        assert_eq!(
            Value::Int(2).sql_cmp(&Value::Float(2.0)),
            Some(Ordering::Equal)
        );
        assert_eq!(
            Value::Float(1.5).sql_cmp(&Value::Int(2)),
            Some(Ordering::Less)
        );
    }

    #[test]
    fn sql_eq_null_semantics() {
        assert!(!Value::Null.sql_eq(&Value::Null));
        assert!(Value::Int(3).sql_eq(&Value::Int(3)));
        assert!(Value::Int(3).sql_eq(&Value::Float(3.0)));
    }

    #[test]
    fn incomparable_types_yield_unknown() {
        assert_eq!(Value::str("x").sql_cmp(&Value::Int(1)), None);
        assert!(!Value::str("x").sql_eq(&Value::Bool(true)));
    }

    #[test]
    fn key_repr_consistent_with_sql_eq() {
        // Int(2) and Float(2.0) are sql_eq, so keys must match.
        assert_eq!(Value::Int(2).key_bytes(), Value::Float(2.0).key_bytes());
        // Distinct non-integral floats differ.
        assert_ne!(
            Value::Float(2.5).key_bytes(),
            Value::Float(2.25).key_bytes()
        );
        // Negative zero normalizes to zero.
        assert_eq!(
            Value::Float(-0.0).key_bytes(),
            Value::Float(0.0).key_bytes()
        );
    }

    #[test]
    fn timestamps_compare_within_domain_only() {
        let d0 = TimeDomain(0);
        let d1 = TimeDomain(1);
        let a = Value::Ts(Timestamp::new(d0, 5));
        let b = Value::Ts(Timestamp::new(d0, 9));
        let c = Value::Ts(Timestamp::new(d1, 9));
        assert_eq!(a.sql_cmp(&b), Some(Ordering::Less));
        assert_eq!(a.sql_cmp(&c), None, "cross-domain time is unordered");
    }

    #[test]
    fn conversions() {
        assert_eq!(Value::from(3i64), Value::Int(3));
        assert_eq!(Value::from(true), Value::Bool(true));
        assert_eq!(Value::from("hi"), Value::str("hi"));
        assert_eq!(Value::from(2.5f64), Value::Float(2.5));
    }

    #[test]
    fn display() {
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::Int(42).to_string(), "42");
        assert_eq!(Value::str("MSFT").to_string(), "MSFT");
    }
}
