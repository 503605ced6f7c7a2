//! Errors of the event model.

use std::fmt;

use crate::AttrType;

/// Errors raised while constructing schemas, events, or relations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventError {
    /// A schema declared two attributes with the same name.
    DuplicateAttr(String),
    /// A schema declared an attribute with an empty name.
    EmptyAttrName,
    /// A schema declared an attribute named `T`, which is reserved for the
    /// temporal attribute.
    ReservedAttrName,
    /// More attributes than the dense `u16` attribute ids can address.
    TooManyAttrs(usize),
    /// A row's value count does not match the schema.
    ArityMismatch {
        /// Number of attributes in the schema.
        expected: usize,
        /// Number of values supplied.
        got: usize,
    },
    /// A value's type does not match its attribute declaration.
    TypeMismatch {
        /// The offending attribute.
        attr: String,
        /// Declared type.
        expected: AttrType,
        /// Supplied type.
        got: AttrType,
    },
    /// A float value was `NaN`, which has no place in a totally comparable
    /// value domain.
    NanValue {
        /// The offending attribute.
        attr: String,
    },
    /// Events were appended out of timestamp order to an ordered relation
    /// builder that forbids it.
    OutOfOrder {
        /// Timestamp of the previously appended event.
        previous: i64,
        /// Timestamp of the offending event.
        got: i64,
    },
    /// A relation or bank has been pushed 2³² events: the next one has no
    /// [`crate::EventId`]. Ids are never reused, so the only way on is a
    /// fresh relation.
    IdSpaceExhausted,
}

impl fmt::Display for EventError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EventError::DuplicateAttr(n) => write!(f, "duplicate attribute name `{n}`"),
            EventError::EmptyAttrName => write!(f, "attribute names must be non-empty"),
            EventError::ReservedAttrName => {
                write!(f, "`T` is reserved for the temporal attribute")
            }
            EventError::TooManyAttrs(n) => write!(f, "too many attributes ({n} > 65535)"),
            EventError::ArityMismatch { expected, got } => {
                write!(f, "row has {got} values, schema has {expected} attributes")
            }
            EventError::TypeMismatch {
                attr,
                expected,
                got,
            } => {
                write!(f, "attribute `{attr}` expects {expected}, got {got}")
            }
            EventError::NanValue { attr } => write!(f, "attribute `{attr}` is NaN"),
            EventError::OutOfOrder { previous, got } => write!(
                f,
                "event timestamp t{got} precedes previously appended t{previous}"
            ),
            EventError::IdSpaceExhausted => write!(
                f,
                "event id space exhausted: 4294967296 events have been pushed"
            ),
        }
    }
}

impl std::error::Error for EventError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_informative() {
        let e = EventError::TypeMismatch {
            attr: "L".into(),
            expected: AttrType::Str,
            got: AttrType::Int,
        };
        assert_eq!(e.to_string(), "attribute `L` expects STR, got INT");
        assert!(EventError::OutOfOrder {
            previous: 5,
            got: 3
        }
        .to_string()
        .contains("t3"));
    }
}
