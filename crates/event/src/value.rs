//! Attribute values and the comparison operators of the condition algebra.

use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

/// A non-temporal attribute value.
///
/// The paper's conditions compare attribute values with
/// `φ ∈ {=, ≠, <, ≤, >, ≥}`; values therefore need a comparison semantics.
/// Comparisons are only defined *within* a type, except that integers and
/// floats compare numerically with each other. Cross-type comparisons of
/// unrelated types (e.g. a string against an integer) are rejected by the
/// pattern compiler and evaluate to "not comparable" at runtime.
#[derive(Debug, Clone)]
pub enum Value {
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit IEEE-754 float. `NaN` is rejected at construction sites that
    /// validate input (relation building, query literals).
    Float(f64),
    /// Shared UTF-8 string: a clone bumps a reference count (events are
    /// cloned on relation duplication for the D2–D5 data sets). Nothing
    /// interns — `From<&str>` / `From<String>` allocate per value, so a
    /// million rows of `"C"` hold a million allocations, and the
    /// dictionary of [`crate::StrColumn`] codes them without merging them.
    Str(Arc<str>),
    /// Boolean.
    Bool(bool),
}

impl Value {
    /// Creates a string value.
    pub fn str(s: impl AsRef<str>) -> Value {
        Value::Str(Arc::from(s.as_ref()))
    }

    /// The [`crate::AttrType`] this value inhabits.
    pub fn attr_type(&self) -> crate::AttrType {
        match self {
            Value::Int(_) => crate::AttrType::Int,
            Value::Float(_) => crate::AttrType::Float,
            Value::Str(_) => crate::AttrType::Str,
            Value::Bool(_) => crate::AttrType::Bool,
        }
    }

    /// Numeric view used for int/float interoperation.
    fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Compares two values, returning `None` when they are not comparable
    /// (distinct non-numeric types, or a `NaN` operand).
    pub fn try_cmp(&self, other: &Value) -> Option<Ordering> {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => Some(a.cmp(b)),
            (Value::Str(a), Value::Str(b)) => Some(a.as_ref().cmp(b.as_ref())),
            (Value::Bool(a), Value::Bool(b)) => Some(a.cmp(b)),
            _ => {
                let (a, b) = (self.as_f64()?, other.as_f64()?);
                a.partial_cmp(&b)
            }
        }
    }

    /// Evaluates `self φ other`. Not-comparable pairs evaluate to `false`
    /// for every operator, including `≠` (a condition over ill-typed
    /// operands is never *satisfied*, mirroring SQL's three-valued logic
    /// collapsing to false in a WHERE clause).
    pub fn compare(&self, op: CmpOp, other: &Value) -> bool {
        match self.try_cmp(other) {
            Some(ord) => op.eval(ord),
            None => false,
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.try_cmp(other) == Some(Ordering::Equal)
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(v as i64)
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
        Value::Str(Arc::from(v))
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Float(v) => write!(f, "{v}"),
            Value::Str(v) => write!(f, "'{v}'"),
            Value::Bool(v) => write!(f, "{v}"),
        }
    }
}

/// Comparison operator `φ ∈ {=, ≠, <, ≤, >, ≥}` of the paper's conditions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `≠`
    Ne,
    /// `<`
    Lt,
    /// `≤`
    Le,
    /// `>`
    Gt,
    /// `≥`
    Ge,
}

impl CmpOp {
    /// All six operators.
    pub const ALL: [CmpOp; 6] = [
        CmpOp::Eq,
        CmpOp::Ne,
        CmpOp::Lt,
        CmpOp::Le,
        CmpOp::Gt,
        CmpOp::Ge,
    ];

    /// Whether an ordering outcome satisfies the operator.
    #[inline]
    pub fn eval(self, ord: Ordering) -> bool {
        match self {
            CmpOp::Eq => ord == Ordering::Equal,
            CmpOp::Ne => ord != Ordering::Equal,
            CmpOp::Lt => ord == Ordering::Less,
            CmpOp::Le => ord != Ordering::Greater,
            CmpOp::Gt => ord == Ordering::Greater,
            CmpOp::Ge => ord != Ordering::Less,
        }
    }

    /// The operator with operands swapped: `a φ b  ⇔  b φ.flip() a`.
    pub fn flip(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::Ne => CmpOp::Ne,
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
        }
    }

    /// The logical negation: `¬(a φ b) ⇔ a φ.negate() b` (for comparable
    /// operands).
    pub fn negate(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Ne,
            CmpOp::Ne => CmpOp::Eq,
            CmpOp::Lt => CmpOp::Ge,
            CmpOp::Le => CmpOp::Gt,
            CmpOp::Gt => CmpOp::Le,
            CmpOp::Ge => CmpOp::Lt,
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_type_comparisons() {
        assert!(Value::from(3).compare(CmpOp::Lt, &Value::from(5)));
        assert!(Value::from("B").compare(CmpOp::Eq, &Value::str("B")));
        assert!(Value::from("A").compare(CmpOp::Lt, &Value::from("B")));
        assert!(Value::from(true).compare(CmpOp::Gt, &Value::from(false)));
        assert!(Value::from(2.5).compare(CmpOp::Ge, &Value::from(2.5)));
    }

    #[test]
    fn int_float_interoperate() {
        assert!(Value::from(3).compare(CmpOp::Eq, &Value::from(3.0)));
        assert!(Value::from(3.5).compare(CmpOp::Gt, &Value::from(3)));
        assert!(Value::from(2).compare(CmpOp::Le, &Value::from(2.0)));
    }

    #[test]
    fn incomparable_types_are_never_satisfied() {
        for op in CmpOp::ALL {
            assert!(
                !Value::from("x").compare(op, &Value::from(1)),
                "string vs int must be false under {op}"
            );
            assert!(!Value::from(true).compare(op, &Value::from(1.0)));
        }
    }

    #[test]
    fn nan_is_never_satisfied() {
        for op in CmpOp::ALL {
            assert!(!Value::from(f64::NAN).compare(op, &Value::from(1.0)));
            assert!(!Value::from(1.0).compare(op, &Value::from(f64::NAN)));
        }
    }

    #[test]
    fn flip_is_an_involution_and_consistent() {
        let a = Value::from(1);
        let b = Value::from(2);
        for op in CmpOp::ALL {
            assert_eq!(op.flip().flip(), op);
            assert_eq!(a.compare(op, &b), b.compare(op.flip(), &a));
        }
    }

    #[test]
    fn negate_is_complementary_on_comparable_values() {
        let pairs = [(1i64, 1i64), (1, 2), (2, 1)];
        for (x, y) in pairs {
            let (a, b) = (Value::from(x), Value::from(y));
            for op in CmpOp::ALL {
                assert_ne!(a.compare(op, &b), a.compare(op.negate(), &b));
            }
        }
    }

    #[test]
    fn equality_follows_try_cmp() {
        assert_eq!(Value::from(3), Value::from(3.0));
        assert_ne!(Value::from("3"), Value::from(3));
        assert_eq!(Value::str("abc"), Value::from("abc"));
    }

    #[test]
    fn display_round_trip_shapes() {
        assert_eq!(Value::from(3).to_string(), "3");
        assert_eq!(Value::from("C").to_string(), "'C'");
        assert_eq!(CmpOp::Le.to_string(), "<=");
    }
}
