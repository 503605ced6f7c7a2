//! Event relations: schema-conformant, chronologically ordered event sets.

use std::fmt;
use std::sync::OnceLock;

use crate::column::StrColumn;
use crate::{AttrId, AttrType, Duration, Event, EventError, EventId, Schema, Timestamp, Value};

/// An event relation: a sequence of events totally ordered by their
/// timestamps (ties broken by insertion order).
///
/// This is the paper's input `E`. The matching engine consumes events in
/// chronological order; [`Relation`] guarantees that order structurally.
///
/// # Eviction
///
/// For long-running streams the relation supports *front eviction*
/// ([`Relation::evict_before`]): events older than a cutoff are dropped
/// while every surviving event keeps its original [`EventId`]. Ids are
/// positions in the *total* pushed order; `base` records how many of the
/// oldest have been evicted, so `event(id)` indexes at
/// `id.index() - base`. Looking up an evicted id panics, exactly like an
/// out-of-bounds id — callers (the streaming matcher) guarantee they only
/// dereference retained events.
///
/// # Columns
///
/// [`Relation::str_column`] serves a dictionary-coded projection of a
/// `Str` attribute, built on first use and dropped by whatever changes
/// the retained events ([`Relation::push_event`],
/// [`Relation::evict_before`]) — a relation that is only ever pushed to
/// never holds one.
#[derive(Debug, Clone)]
pub struct Relation {
    schema: Schema,
    events: Vec<Event>,
    /// Number of events evicted from the front; ids `< base` are gone.
    base: usize,
    /// Timestamp of the most recently pushed event, cached so the
    /// chronological-order check survives eviction of the backing vector.
    last_ts: Option<Timestamp>,
    /// One slot per attribute, allocated with the first projection asked
    /// for and filled per attribute; unset whenever `events` changes.
    columns: OnceLock<Box<[OnceLock<StrColumn>]>>,
}

impl Relation {
    /// Creates an empty relation over `schema`.
    pub fn new(schema: Schema) -> Relation {
        Relation::from_events(schema, Vec::new())
    }

    /// Builds a relation from an already-chronological event vector.
    fn from_events(schema: Schema, events: Vec<Event>) -> Relation {
        let last_ts = events.last().map(Event::ts);
        Relation {
            schema,
            events,
            base: 0,
            last_ts,
            columns: OnceLock::new(),
        }
    }

    /// Reconstructs a relation from externally persisted parts: the
    /// number of events already `evicted` from the front, the retained
    /// `events`, and the cached last-pushed timestamp (which may exceed
    /// the last retained event's timestamp after total eviction).
    ///
    /// This is the inverse of reading [`Relation::evicted`],
    /// [`Relation::events`] and [`Relation::last_ts`] — the streaming
    /// matcher's snapshot/restore path uses it to resurrect its window
    /// with every retained event keeping its original [`EventId`].
    /// Validates schema conformance, chronological order, that `last_ts`
    /// is consistent with the retained tail, and that every retained
    /// event's id fits [`EventId`].
    pub fn restore(
        schema: Schema,
        evicted: usize,
        events: Vec<Event>,
        last_ts: Option<Timestamp>,
    ) -> Result<Relation, EventError> {
        if let Some(last) = events.len().checked_sub(1) {
            event_id(evicted.saturating_add(last))?;
        }
        let mut prev: Option<Timestamp> = None;
        for e in &events {
            schema.check_row(e.values())?;
            if let Some(p) = prev {
                if e.ts() < p {
                    return Err(EventError::OutOfOrder {
                        previous: p.ticks(),
                        got: e.ts().ticks(),
                    });
                }
            }
            prev = Some(e.ts());
        }
        if let Some(tail) = prev {
            let cached = last_ts.unwrap_or(tail);
            if cached < tail {
                return Err(EventError::OutOfOrder {
                    previous: tail.ticks(),
                    got: cached.ticks(),
                });
            }
        }
        Ok(Relation {
            base: evicted,
            last_ts,
            ..Relation::from_events(schema, events)
        })
    }

    /// Starts a builder that accepts rows in any order and sorts them
    /// stably by timestamp on [`RelationBuilder::build`].
    pub fn builder(schema: Schema) -> RelationBuilder {
        RelationBuilder {
            relation: Relation::new(schema),
            rows: Vec::new(),
        }
    }

    /// The relation's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of *retained* events. Equal to the total pushed count
    /// unless [`Relation::evict_before`] has been used.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` iff the relation retains no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Total number of events ever pushed, including evicted ones. The
    /// next pushed event receives this as its id.
    pub fn total_len(&self) -> usize {
        self.base + self.events.len()
    }

    /// Number of events evicted from the front so far.
    pub fn evicted(&self) -> usize {
        self.base
    }

    /// Index of the oldest retained event — the lower bound for id scans.
    /// Equal to [`Relation::evicted`]; when the relation is empty this is
    /// the index the next pushed event will get.
    pub fn first_index(&self) -> usize {
        self.base
    }

    /// The retained events in chronological order.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// The event with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` has been evicted or was never pushed.
    pub fn event(&self, id: EventId) -> &Event {
        &self.events[id.index() - self.base]
    }

    /// Iterates `(id, event)` pairs over the retained events in
    /// chronological order.
    pub fn iter(&self) -> impl Iterator<Item = (EventId, &Event)> {
        let base = self.base;
        self.events
            .iter()
            .enumerate()
            .map(move |(i, e)| (EventId::from(base + i), e))
    }

    /// Appends an event from raw values, validating schema conformance and
    /// chronological order (`ts` must not precede the last event).
    pub fn push_values(
        &mut self,
        ts: Timestamp,
        values: impl Into<Vec<Value>>,
    ) -> Result<EventId, EventError> {
        let values = values.into();
        self.schema.check_row(&values)?;
        self.push_event(Event::new(ts, values))
    }

    /// Appends a pre-built event, validating chronological order only.
    /// The order check uses the cached last-pushed timestamp, so it keeps
    /// rejecting out-of-order events even after the tail of the relation
    /// has been evicted. Refuses the event with
    /// [`EventError::IdSpaceExhausted`] once 2³² have been pushed: ids do
    /// not wrap.
    pub fn push_event(&mut self, event: Event) -> Result<EventId, EventError> {
        if let Some(last) = self.last_ts {
            if event.ts() < last {
                return Err(EventError::OutOfOrder {
                    previous: last.ticks(),
                    got: event.ts().ticks(),
                });
            }
        }
        let id = event_id(self.base + self.events.len())?;
        self.last_ts = Some(event.ts());
        self.events.push(event);
        self.columns.take();
        Ok(id)
    }

    /// Evicts retained events with `ts < cutoff` from the front of the
    /// relation, keeping every surviving event's id stable. Returns the
    /// number of events physically removed.
    ///
    /// To keep eviction amortized O(1) per pushed event, the backing
    /// vector is only compacted when at least half of it is evictable
    /// (hysteresis); below that threshold the call is a no-op and returns
    /// 0. Consequently the retained count stays within 2× of the events
    /// actually inside the cutoff horizon.
    pub fn evict_before(&mut self, cutoff: Timestamp) -> usize {
        let evictable = self.events.partition_point(|e| e.ts() < cutoff);
        if evictable * 2 < self.events.len() {
            return 0;
        }
        self.evict_all_before(cutoff)
    }

    /// [`Relation::evict_before`] without the hysteresis: evicts every
    /// retained event with `ts < cutoff`, however few, so that what is
    /// retained depends on the cutoff alone and not on the cutoffs
    /// evicted at before it. Returns the number of events removed.
    pub fn evict_all_before(&mut self, cutoff: Timestamp) -> usize {
        let evictable = self.events.partition_point(|e| e.ts() < cutoff);
        if evictable == 0 {
            return 0;
        }
        self.events.drain(..evictable);
        self.base += evictable;
        self.columns.take();
        evictable
    }

    /// The dictionary-coded projection of `attr` over the retained events
    /// (position `i` of [`StrColumn::codes`] is `events()[i]`), or `None`
    /// when the schema does not declare `attr` a `Str`. Built by the
    /// first call — one pass over the rows, concurrent callers wait for
    /// it — and kept until the relation next changes.
    pub fn str_column(&self, attr: AttrId) -> Option<&StrColumn> {
        if self.schema.attrs().get(attr.index())?.ty != AttrType::Str {
            return None;
        }
        let slots = self
            .columns
            .get_or_init(|| (0..self.schema.len()).map(|_| OnceLock::new()).collect());
        Some(slots[attr.index()].get_or_init(|| StrColumn::build(&self.events, attr)))
    }

    /// Returns the window size `W` for window width `τ`: the maximal number
    /// of events whose timestamps span at most `τ` (Definition 5 of the
    /// paper). Computed with a two-pointer sweep in O(n).
    pub fn window_size(&self, tau: Duration) -> usize {
        let mut best = 0;
        let mut lo = 0;
        for hi in 0..self.events.len() {
            while self.events[hi].ts().distance(self.events[lo].ts()) > tau {
                lo += 1;
            }
            best = best.max(hi - lo + 1);
        }
        best
    }

    /// Produces the relation `Dk` of the paper's evaluation: every event
    /// appears `k` times (identical values and timestamp, consecutive in
    /// the tie order). `duplicate(1)` is a plain clone.
    pub fn duplicate(&self, k: usize) -> Relation {
        let mut events = Vec::with_capacity(self.events.len() * k);
        for e in &self.events {
            for _ in 0..k {
                events.push(e.clone());
            }
        }
        Relation::from_events(self.schema.clone(), events)
    }

    /// Timestamp of the first retained event, if any.
    pub fn first_ts(&self) -> Option<Timestamp> {
        self.events.first().map(Event::ts)
    }

    /// Timestamp of the last event ever pushed, if any. Served from a
    /// cache, so it stays valid even if eviction empties the relation.
    pub fn last_ts(&self) -> Option<Timestamp> {
        self.last_ts
    }
}

impl fmt::Display for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{} with {} events", self.schema, self.events.len())?;
        for (id, e) in self.iter() {
            writeln!(f, "  {id}: {e}")?;
        }
        Ok(())
    }
}

/// The id of the `index`-th event ever pushed, if the id space reaches it.
fn event_id(index: usize) -> Result<EventId, EventError> {
    u32::try_from(index)
        .map(EventId)
        .map_err(|_| EventError::IdSpaceExhausted)
}

/// Builder that accepts rows in arbitrary timestamp order.
#[derive(Debug)]
pub struct RelationBuilder {
    relation: Relation,
    rows: Vec<Event>,
}

impl RelationBuilder {
    /// Adds a row (any timestamp order).
    pub fn row(
        mut self,
        ts: Timestamp,
        values: impl Into<Vec<Value>>,
    ) -> Result<RelationBuilder, EventError> {
        let values = values.into();
        self.relation.schema.check_row(&values)?;
        self.rows.push(Event::new(ts, values));
        Ok(self)
    }

    /// Adds a pre-built event (any timestamp order, unchecked values).
    pub fn event(mut self, event: Event) -> RelationBuilder {
        self.rows.push(event);
        self
    }

    /// Sorts rows stably by timestamp and produces the relation.
    pub fn build(mut self) -> Relation {
        self.rows.sort_by_key(Event::ts);
        Relation::from_events(self.relation.schema, self.rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AttrType;

    fn schema() -> Schema {
        Schema::builder()
            .attr("ID", AttrType::Int)
            .attr("L", AttrType::Str)
            .build()
            .unwrap()
    }

    fn rel_with(ts: &[i64]) -> Relation {
        let mut r = Relation::new(schema());
        for (i, t) in ts.iter().enumerate() {
            r.push_values(
                Timestamp::new(*t),
                [Value::from(i as i64), Value::from("X")],
            )
            .unwrap();
        }
        r
    }

    #[test]
    fn push_enforces_order() {
        let mut r = Relation::new(schema());
        r.push_values(Timestamp::new(5), [1.into(), "A".into()])
            .unwrap();
        r.push_values(Timestamp::new(5), [2.into(), "B".into()])
            .unwrap(); // tie ok
        let err = r
            .push_values(Timestamp::new(4), [3.into(), "C".into()])
            .unwrap_err();
        assert!(matches!(
            err,
            EventError::OutOfOrder {
                previous: 5,
                got: 4
            }
        ));
    }

    #[test]
    fn push_validates_rows() {
        let mut r = Relation::new(schema());
        assert!(r
            .push_values(Timestamp::new(1), [Value::from("oops"), Value::from("A")])
            .is_err());
        assert!(r.is_empty());
    }

    #[test]
    fn builder_sorts_stably() {
        let r = Relation::builder(schema())
            .row(Timestamp::new(9), [1.into(), "late".into()])
            .unwrap()
            .row(Timestamp::new(3), [2.into(), "early".into()])
            .unwrap()
            .row(Timestamp::new(9), [3.into(), "late2".into()])
            .unwrap()
            .build();
        let labels: Vec<_> = r
            .events()
            .iter()
            .map(|e| e.value(crate::AttrId(1)).to_string())
            .collect();
        assert_eq!(labels, vec!["'early'", "'late'", "'late2'"]);
    }

    #[test]
    fn window_size_two_pointer() {
        // timestamps: 0,1,2,10,11,50
        let r = rel_with(&[0, 1, 2, 10, 11, 50]);
        assert_eq!(r.window_size(Duration::ticks(0)), 1);
        assert_eq!(r.window_size(Duration::ticks(2)), 3);
        assert_eq!(r.window_size(Duration::ticks(11)), 5);
        assert_eq!(r.window_size(Duration::ticks(100)), 6);
        assert_eq!(Relation::new(schema()).window_size(Duration::ticks(5)), 0);
    }

    #[test]
    fn window_size_counts_ties() {
        let r = rel_with(&[7, 7, 7]);
        assert_eq!(r.window_size(Duration::ZERO), 3);
    }

    #[test]
    fn duplicate_matches_paper_datasets() {
        let d1 = rel_with(&[0, 1, 2]);
        let d3 = d1.duplicate(3);
        assert_eq!(d3.len(), 9);
        // Duplicates are consecutive and share timestamps.
        assert_eq!(d3.event(EventId(0)).ts(), d3.event(EventId(2)).ts());
        assert_eq!(
            d3.window_size(Duration::ticks(2)),
            3 * d1.window_size(Duration::ticks(2))
        );
        assert_eq!(d1.duplicate(1).len(), d1.len());
        assert_eq!(d1.duplicate(0).len(), 0);
    }

    #[test]
    fn first_last_and_iter() {
        let r = rel_with(&[2, 5, 9]);
        assert_eq!(r.first_ts(), Some(Timestamp::new(2)));
        assert_eq!(r.last_ts(), Some(Timestamp::new(9)));
        let ids: Vec<_> = r.iter().map(|(id, _)| id.0).collect();
        assert_eq!(ids, vec![0, 1, 2]);
    }

    #[test]
    fn eviction_keeps_ids_stable() {
        let mut r = rel_with(&[0, 1, 2, 10, 11]);
        // 3 of 5 evictable: past the hysteresis threshold.
        assert_eq!(r.evict_before(Timestamp::new(10)), 3);
        assert_eq!(r.len(), 2);
        assert_eq!(r.total_len(), 5);
        assert_eq!(r.evicted(), 3);
        assert_eq!(r.first_index(), 3);
        // Survivors answer to their original ids.
        assert_eq!(r.event(EventId(3)).ts(), Timestamp::new(10));
        assert_eq!(r.event(EventId(4)).ts(), Timestamp::new(11));
        let ids: Vec<u32> = r.iter().map(|(id, _)| id.0).collect();
        assert_eq!(ids, vec![3, 4]);
        // New pushes continue the id sequence.
        let id = r
            .push_values(Timestamp::new(12), [9.into(), "X".into()])
            .unwrap();
        assert_eq!(id, EventId(5));
    }

    #[test]
    fn eviction_hysteresis_defers_small_compactions() {
        let mut r = rel_with(&[0, 1, 2, 3, 4, 5, 6, 7]);
        // Only 1 of 8 evictable: below the half threshold → no-op.
        assert_eq!(r.evict_before(Timestamp::new(1)), 0);
        assert_eq!(r.len(), 8);
        assert_eq!(r.evicted(), 0);
        // 4 of 8 evictable: exactly at the threshold → compacts.
        assert_eq!(r.evict_before(Timestamp::new(4)), 4);
        assert_eq!(r.len(), 4);
        assert_eq!(r.first_ts(), Some(Timestamp::new(4)));
    }

    #[test]
    fn evict_all_before_ignores_the_hysteresis() {
        // Evicting at 1 then 4 and evicting at 4 once leave one window.
        let mut stepped = rel_with(&[0, 1, 2, 3, 4, 5, 6, 7]);
        assert_eq!(stepped.evict_all_before(Timestamp::new(1)), 1);
        assert_eq!(stepped.evict_all_before(Timestamp::new(4)), 3);
        let mut once = rel_with(&[0, 1, 2, 3, 4, 5, 6, 7]);
        assert_eq!(once.evict_all_before(Timestamp::new(4)), 4);
        assert_eq!(stepped.events(), once.events());
        assert_eq!(stepped.evicted(), once.evicted());
        assert_eq!(once.evict_all_before(Timestamp::new(4)), 0);
    }

    #[test]
    fn eviction_boundary_is_strict() {
        let mut r = rel_with(&[0, 5, 5, 6]);
        // Events exactly at the cutoff are retained.
        assert_eq!(r.evict_before(Timestamp::new(5)), 0); // 1 of 4: hysteresis
        let mut r2 = rel_with(&[0, 1, 5, 6]);
        assert_eq!(r2.evict_before(Timestamp::new(5)), 2);
        assert_eq!(r2.first_ts(), Some(Timestamp::new(5)));
    }

    #[test]
    fn restore_round_trips_evicted_relation() {
        let mut r = rel_with(&[0, 1, 2, 10, 11]);
        r.evict_before(Timestamp::new(10));
        let restored = Relation::restore(
            r.schema().clone(),
            r.evicted(),
            r.events().to_vec(),
            r.last_ts(),
        )
        .unwrap();
        assert_eq!(restored.evicted(), 3);
        assert_eq!(restored.len(), 2);
        assert_eq!(restored.event(EventId(3)).ts(), Timestamp::new(10));
        assert_eq!(restored.last_ts(), Some(Timestamp::new(11)));
        // Pushes continue the id sequence exactly as the original would.
        let mut restored = restored;
        let id = restored
            .push_values(Timestamp::new(12), [9.into(), "X".into()])
            .unwrap();
        assert_eq!(id, EventId(5));
    }

    #[test]
    fn restore_rejects_inconsistent_parts() {
        let good = rel_with(&[0, 5]);
        // Events out of order.
        let mut events = good.events().to_vec();
        events.reverse();
        assert!(Relation::restore(schema(), 0, events, Some(Timestamp::new(5))).is_err());
        // Cached last_ts behind the retained tail.
        assert!(
            Relation::restore(schema(), 0, good.events().to_vec(), Some(Timestamp::new(3)))
                .is_err()
        );
        // Schema violation inside a retained event.
        let bad = vec![Event::new(Timestamp::new(0), vec![Value::from("s")])];
        assert!(Relation::restore(schema(), 0, bad, None).is_err());
        // Total eviction: empty tail with a cached last_ts is fine.
        let r = Relation::restore(schema(), 4, Vec::new(), Some(Timestamp::new(9))).unwrap();
        assert_eq!(r.total_len(), 4);
        assert_eq!(r.last_ts(), Some(Timestamp::new(9)));
    }

    #[test]
    fn ids_end_at_the_end_of_the_id_space() {
        // A relation restored two ids short of the end reaches it
        // without four billion pushes.
        let one = |t: i64| Event::new(Timestamp::new(t), vec![0.into(), "X".into()]);
        let mut r = Relation::restore(schema(), u32::MAX as usize - 1, vec![one(0)], None).unwrap();
        assert_eq!(r.event(EventId(u32::MAX - 1)).ts(), Timestamp::new(0));
        assert_eq!(r.push_event(one(1)), Ok(EventId(u32::MAX)));
        // The 2³²-th event has no id: refused, not wrapped to e1.
        assert_eq!(r.push_event(one(2)), Err(EventError::IdSpaceExhausted));
        assert_eq!(
            r.push_values(Timestamp::new(2), [0.into(), "X".into()]),
            Err(EventError::IdSpaceExhausted)
        );
        assert_eq!((r.len(), r.last_ts()), (2, Some(Timestamp::new(1))));
        assert_eq!(r.event(EventId(u32::MAX)).ts(), Timestamp::new(1));
        // Nor does `restore` hand out an id that does not exist.
        assert_eq!(
            Relation::restore(schema(), u32::MAX as usize, vec![one(0), one(1)], None).unwrap_err(),
            EventError::IdSpaceExhausted
        );
    }

    #[test]
    fn columns_follow_the_retained_events() {
        let l = AttrId(1);
        let mut r = rel_with(&[0, 1, 2, 3]);
        assert!(r.str_column(AttrId(0)).is_none(), "ID is an Int");
        assert!(r.str_column(AttrId(9)).is_none(), "no such attribute");
        assert_eq!(r.str_column(l).unwrap().codes(), &[0, 0, 0, 0]);
        // Same column until the relation changes …
        assert!(std::ptr::eq(
            r.str_column(l).unwrap(),
            r.str_column(l).unwrap()
        ));
        // … a push and an eviction each drop it.
        r.push_values(Timestamp::new(4), [9.into(), "Y".into()])
            .unwrap();
        assert_eq!(r.str_column(l).unwrap().codes(), &[0, 0, 0, 0, 1]);
        assert_eq!(r.evict_before(Timestamp::new(4)), 4);
        let column = r.str_column(l).unwrap();
        assert_eq!(column.codes(), &[0]);
        assert_eq!(column.dict()[0].as_ref(), "Y");
        // A deferred eviction changed nothing and drops nothing.
        let before = r.str_column(l).unwrap() as *const StrColumn;
        assert_eq!(r.evict_before(Timestamp::new(0)), 0);
        assert!(std::ptr::eq(before, r.str_column(l).unwrap()));
    }

    #[test]
    fn order_check_survives_total_eviction() {
        let mut r = rel_with(&[0, 1, 2, 9]);
        assert_eq!(r.evict_before(Timestamp::new(10)), 4);
        assert!(r.is_empty());
        assert_eq!(r.last_ts(), Some(Timestamp::new(9)));
        // An event older than the last pushed one is still rejected.
        let err = r
            .push_values(Timestamp::new(8), [0.into(), "X".into()])
            .unwrap_err();
        assert!(matches!(
            err,
            EventError::OutOfOrder {
                previous: 9,
                got: 8
            }
        ));
        assert_eq!(
            r.push_values(Timestamp::new(9), [0.into(), "X".into()])
                .unwrap(),
            EventId(4)
        );
    }
}
