//! Events: tuples of attribute values plus an occurrence time.

use std::fmt;
use std::sync::Arc;

use crate::{Schema, Timestamp, Value};

/// Identifier of an event within a [`crate::Relation`].
///
/// Event ids are dense indices into the relation's chronological order; the
/// matching engine stores ids rather than cloned events in its match
/// buffers, so ids double as compact result references.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventId(pub u32);

impl EventId {
    /// The event's position in its relation's chronological order.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl From<u32> for EventId {
    #[inline]
    fn from(v: u32) -> Self {
        EventId(v)
    }
}

/// The id of the event at position `v` of a relation's chronological
/// order. [`crate::Relation::push_event`] refuses an event whose id would
/// not fit in `u32`, so a position derived from a relation always fits;
/// one that does not is a bug, and panics rather than naming another
/// event.
impl From<usize> for EventId {
    #[inline]
    fn from(v: usize) -> Self {
        EventId(
            u32::try_from(v).expect("event positions fit in u32: Relation::push_event bounds them"),
        )
    }
}

impl fmt::Display for EventId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0 + 1) // 1-based, like the paper's e1…e14
    }
}

/// An event: non-temporal attribute values and an occurrence timestamp.
///
/// Values are stored in schema order in a shared slice, so cloning an event
/// (e.g. for the duplicated data sets D2–D5) is O(1).
#[derive(Debug, Clone)]
pub struct Event {
    values: Arc<[Value]>,
    ts: Timestamp,
}

/// Events compare by timestamp and attribute values — the identity that
/// matters for snapshot round-trips and differential tests. Follows
/// [`Value`]'s comparison semantics (ints and floats compare
/// numerically), so no derived `Eq`.
impl PartialEq for Event {
    fn eq(&self, other: &Event) -> bool {
        self.ts == other.ts && self.values[..] == other.values[..]
    }
}

impl Event {
    /// Creates an event. The caller is responsible for schema conformance;
    /// use [`crate::Relation::push_values`] for checked construction.
    pub fn new(ts: Timestamp, values: impl Into<Arc<[Value]>>) -> Event {
        Event {
            values: values.into(),
            ts,
        }
    }

    /// Occurrence time (the temporal attribute `T`).
    #[inline]
    pub fn ts(&self) -> Timestamp {
        self.ts
    }

    /// The attribute values in schema order.
    #[inline]
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Value of the attribute at dense index `id` — the engine's hot path.
    #[inline]
    pub fn value(&self, id: crate::AttrId) -> &Value {
        &self.values[id.index()]
    }

    /// Value of the attribute called `name` under `schema`.
    pub fn value_by_name<'a>(&'a self, name: &str, schema: &Schema) -> Option<&'a Value> {
        schema.attr_id(name).map(|id| self.value(id))
    }

    /// Returns a copy of this event shifted in time by `delta` ticks.
    pub fn shifted(&self, delta: i64) -> Event {
        Event {
            values: Arc::clone(&self.values),
            ts: Timestamp::new(self.ts.ticks() + delta),
        }
    }
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ") @ {}", self.ts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AttrId, AttrType};

    #[test]
    fn event_id_from_the_last_position_that_fits() {
        assert_eq!(EventId::from(u32::MAX as usize), EventId(u32::MAX));
    }

    /// One past the id space is not `e1` again.
    #[cfg(target_pointer_width = "64")]
    #[test]
    #[should_panic(expected = "event positions fit in u32")]
    fn event_id_past_the_id_space_panics() {
        let _ = EventId::from(u32::MAX as usize + 1);
    }

    #[test]
    fn event_accessors() {
        let schema = Schema::builder()
            .attr("ID", AttrType::Int)
            .attr("L", AttrType::Str)
            .build()
            .unwrap();
        let e = Event::new(Timestamp::new(9), vec![Value::from(1), Value::from("C")]);
        assert_eq!(e.ts(), Timestamp::new(9));
        assert_eq!(e.value(AttrId(0)), &Value::from(1));
        assert_eq!(e.value_by_name("L", &schema), Some(&Value::from("C")));
        assert_eq!(e.value_by_name("missing", &schema), None);
        assert_eq!(e.values().len(), 2);
    }

    #[test]
    fn shifted_preserves_values() {
        let e = Event::new(Timestamp::new(10), vec![Value::from(1)]);
        let s = e.shifted(-3);
        assert_eq!(s.ts(), Timestamp::new(7));
        assert_eq!(s.values(), e.values());
    }

    #[test]
    fn event_id_display_is_one_based() {
        assert_eq!(EventId(0).to_string(), "e1");
        assert_eq!(EventId(13).to_string(), "e14");
        assert_eq!(EventId::from(3usize).index(), 3);
    }

    #[test]
    fn display_shows_values_and_time() {
        let e = Event::new(Timestamp::new(9), vec![Value::from(1), Value::from("C")]);
        assert_eq!(e.to_string(), "(1, 'C') @ t9");
    }
}
