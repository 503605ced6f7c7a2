//! Zero-copy relation views and key-based partitioning.
//!
//! Partition-based evaluation splits a relation per distinct value of a
//! key attribute and matches each slice independently. The naive split
//! clones every [`Event`] into a fresh per-key [`Relation`]; a
//! [`RelationView`] instead records only the *ids* of the member events
//! and borrows everything else from the parent relation — partitioning a
//! relation allocates index vectors and nothing more.
//!
//! The matching engine accepts any [`EventSource`], so a view is matched
//! exactly like a relation: view-local event ids are dense
//! `0..view.len()`, and [`RelationView::global_id`] maps a local id back
//! to the parent relation's id when results must be expressed globally.

use std::collections::HashMap;
use std::sync::Arc;

use crate::{AttrId, Event, EventId, Relation, Schema, StrCodes, Value};

/// Read access to a chronologically ordered sequence of events — the
/// engine-facing common surface of [`Relation`] and [`RelationView`].
///
/// Event ids are dense indices `0..len()` in chronological order (for an
/// eviction-compacted [`Relation`], `first_index()..first_index()+len()`).
pub trait EventSource {
    /// The schema shared by all events.
    fn schema(&self) -> &Schema;
    /// Number of accessible events.
    fn len(&self) -> usize;
    /// `true` iff the source holds no events.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Index of the first accessible event (non-zero only for relations
    /// that evicted a prefix).
    fn first_index(&self) -> usize;
    /// The event with the given id.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    fn event(&self, id: EventId) -> &Event;
    /// The source's events under the dictionary-coded projection of
    /// `attr`, or `None` when the schema does not declare `attr` a `Str`.
    /// Every source codes every `Str` attribute — a scan's `Str` lanes
    /// read nothing else. Asking builds the projection if need be — see
    /// [`Relation::str_column`].
    fn str_codes(&self, attr: AttrId) -> Option<StrCodes<'_>>;
}

impl EventSource for Relation {
    fn schema(&self) -> &Schema {
        Relation::schema(self)
    }
    fn len(&self) -> usize {
        Relation::len(self)
    }
    fn first_index(&self) -> usize {
        Relation::first_index(self)
    }
    fn event(&self, id: EventId) -> &Event {
        Relation::event(self, id)
    }
    fn str_codes(&self, attr: AttrId) -> Option<StrCodes<'_>> {
        self.str_column(attr).map(StrCodes::of_relation)
    }
}

/// A zero-copy slice of a parent [`Relation`]: an ordered set of event
/// ids plus a borrow of the parent. Views re-number their members with
/// dense local ids `0..len()`; the member events themselves are *not*
/// cloned — [`EventSource::event`] returns references into the parent.
#[derive(Debug, Clone)]
pub struct RelationView<'a> {
    parent: &'a Relation,
    ids: Vec<EventId>,
}

impl<'a> RelationView<'a> {
    /// Builds a view over `parent` from ascending global event ids.
    ///
    /// # Panics
    /// Debug builds assert that `ids` is strictly ascending (which
    /// preserves the parent's chronological order) and in range.
    pub fn new(parent: &'a Relation, ids: Vec<EventId>) -> RelationView<'a> {
        debug_assert!(
            ids.windows(2).all(|w| w[0] < w[1]),
            "view ids must be strictly ascending"
        );
        debug_assert!(ids.iter().all(|id| id.index() >= parent.first_index()
            && id.index() < parent.first_index() + parent.len()));
        RelationView { parent, ids }
    }

    /// The parent relation this view borrows from.
    pub fn parent(&self) -> &'a Relation {
        self.parent
    }

    /// The member events' ids in the *parent* relation, ascending.
    pub fn ids(&self) -> &[EventId] {
        &self.ids
    }

    /// Maps a view-local event id to the parent relation's id.
    ///
    /// # Panics
    /// Panics if `local` is out of range.
    pub fn global_id(&self, local: EventId) -> EventId {
        self.ids[local.index()]
    }

    /// Iterates `(local id, event)` pairs in chronological order.
    pub fn iter(&self) -> impl Iterator<Item = (EventId, &'a Event)> + '_ {
        self.ids
            .iter()
            .enumerate()
            .map(|(i, &g)| (EventId::from(i), self.parent.event(g)))
    }
}

impl EventSource for RelationView<'_> {
    fn schema(&self) -> &Schema {
        self.parent.schema()
    }
    fn len(&self) -> usize {
        self.ids.len()
    }
    fn first_index(&self) -> usize {
        0
    }
    fn event(&self, id: EventId) -> &Event {
        self.parent.event(self.ids[id.index()])
    }
    fn str_codes(&self, attr: AttrId) -> Option<StrCodes<'_>> {
        let column = self.parent.str_column(attr)?;
        Some(StrCodes::of_view(
            column,
            &self.ids,
            self.parent.first_index(),
        ))
    }
}

/// A hashable view of a partitioning attribute's value. [`Value`] itself
/// is not `Hash` (floats), so partitioning hashes this instead — without
/// per-event allocation: ints, bools, and floats copy bits, and strings
/// bump the existing `Arc` refcount.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum PartitionKey {
    /// An integer key.
    Int(i64),
    /// Float partitions compare by bit pattern — exact-value grouping,
    /// which is the only sensible equality for a partition key.
    Bits(u64),
    /// A string key (shares the value's `Arc`).
    Str(Arc<str>),
    /// A boolean key.
    Bool(bool),
}

impl PartitionKey {
    /// The partition key of a value.
    pub fn of(value: &Value) -> PartitionKey {
        match value {
            Value::Int(i) => PartitionKey::Int(*i),
            Value::Float(f) => PartitionKey::Bits(f.to_bits()),
            Value::Str(s) => PartitionKey::Str(Arc::clone(s)),
            Value::Bool(b) => PartitionKey::Bool(*b),
        }
    }
}

/// Splits `relation` into one zero-copy [`RelationView`] per distinct
/// value of `key`, in first-occurrence order of the key. Each view's ids
/// are ascending, so every partition preserves chronological order; the
/// partitions' id sets are disjoint and cover the relation.
pub fn partition_views(relation: &Relation, key: AttrId) -> Vec<(Value, RelationView<'_>)> {
    let mut index: HashMap<PartitionKey, usize> = HashMap::new();
    let mut parts: Vec<(Value, Vec<EventId>)> = Vec::new();
    for (id, event) in relation.iter() {
        let value = event.value(key);
        let slot = *index.entry(PartitionKey::of(value)).or_insert_with(|| {
            parts.push((value.clone(), Vec::new()));
            parts.len() - 1
        });
        parts[slot].1.push(id);
    }
    parts
        .into_iter()
        .map(|(value, ids)| (value, RelationView::new(relation, ids)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AttrType, Timestamp};

    fn sample() -> Relation {
        let schema = Schema::builder()
            .attr("ID", AttrType::Int)
            .attr("L", AttrType::Str)
            .build()
            .unwrap();
        let mut rel = Relation::new(schema);
        for (t, id, l) in [(0, 1, "A"), (1, 2, "A"), (2, 1, "B"), (3, 2, "B")] {
            rel.push_values(Timestamp::new(t), [Value::from(id), Value::from(l)])
                .unwrap();
        }
        rel
    }

    #[test]
    fn views_split_without_cloning_events() {
        let rel = sample();
        let key = rel.schema().attr_id("ID").unwrap();
        let parts = partition_views(&rel, key);
        assert_eq!(parts.len(), 2);
        assert_eq!(parts[0].0, Value::from(1));
        assert_eq!(parts[0].1.ids(), &[EventId(0), EventId(2)]);
        assert_eq!(parts[1].1.ids(), &[EventId(1), EventId(3)]);
        // Zero-copy: the view returns the *same* event object the parent
        // holds, not a clone.
        for (_, view) in &parts {
            for (local, event) in view.iter() {
                let global = view.global_id(local);
                assert!(std::ptr::eq(event, rel.event(global)));
            }
        }
    }

    #[test]
    fn view_is_an_event_source_with_local_ids() {
        let rel = sample();
        let key = rel.schema().attr_id("ID").unwrap();
        let parts = partition_views(&rel, key);
        let view = &parts[1].1;
        assert_eq!(EventSource::len(view), 2);
        assert_eq!(EventSource::first_index(view), 0);
        assert_eq!(view.event(EventId(0)).ts(), Timestamp::new(1));
        assert_eq!(view.event(EventId(1)).ts(), Timestamp::new(3));
    }

    #[test]
    fn partition_keys_group_exact_values() {
        let a = PartitionKey::of(&Value::from("web-1"));
        assert_eq!(a, PartitionKey::of(&Value::from("web-1")));
        assert_ne!(a, PartitionKey::of(&Value::from("web-2")));
        assert_ne!(
            PartitionKey::of(&Value::Float(0.0)),
            PartitionKey::of(&Value::Float(-0.0)),
            "distinct bit patterns are distinct partitions"
        );
        assert_eq!(PartitionKey::of(&Value::Int(3)), PartitionKey::Int(3));
    }

    #[test]
    fn empty_relation_has_no_partitions() {
        let schema = Schema::builder().attr("ID", AttrType::Int).build().unwrap();
        let rel = Relation::new(schema);
        assert!(partition_views(&rel, AttrId(0)).is_empty());
    }
}
