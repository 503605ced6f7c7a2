//! Event→pattern predicate index for multi-pattern (bank) execution.
//!
//! With N patterns registered against one stream, a naive bank pushes
//! every event into every matcher. The paper's §4.5 constant-predicate
//! filter generalizes across patterns: an event needs to reach pattern
//! `p` only when it could possibly *advance* `p` — bind to one of its
//! variables or violate one of its negations. Both are decidable from
//! constant conditions alone:
//!
//! * An event can bind to variable `v` only if it satisfies **all** of
//!   `v`'s constant conditions ([`CompiledPattern::satisfies_var_constants`]
//!   is a necessary criterion — every transition evaluates every
//!   condition of the variable it binds).
//! * An event can violate a negation only if it satisfies **all** of the
//!   negation's constant conditions
//!   ([`crate::CompiledNegation::violated_by`] returns `false` the moment
//!   one fails, regardless of the positive bindings).
//!
//! So pattern `p` *admits* event `e` iff some **admission group** — one
//! per positive variable, one per negation, each the conjunction of its
//! constant conditions — holds on `e` in full. An event admitted by no
//! group of `p` is invisible to `p`'s matching outcome; the bank only
//! heartbeats `p`'s watermark (see `ses-core`'s `PatternBank` and
//! `docs/patternbank.md` for the full soundness argument).
//!
//! # Classification
//!
//! Each pattern is classified once at build time:
//!
//! * **Every** — some variable or negation has *no* constant conditions:
//!   any event could advance the pattern, so it receives every event.
//! * **Never** — Θ is provably unsatisfiable (`SES001`): the matcher can
//!   never emit, so no event is routed (heartbeats only).
//! * **Indexed** — every admission group pins some attribute to a single
//!   point value (computed with the interval [`Domain`]): the group
//!   subscribes under `(attribute, value)` in a hash map, and a push
//!   probes one key per constrained attribute instead of evaluating N
//!   predicates.
//! * **Scanned** — constrained, but at least one group is not a point
//!   (e.g. only range conditions): the admission predicate is evaluated
//!   per event. Still skips — just without the O(1) lookup.
//!
//! Point subscriptions are restricted to `Int`/`Str`/`Bool` values whose
//! type equals the schema's attribute type: for those, condition
//! equality coincides with [`PartitionKey`] hash-equality. Floats are
//! excluded (`-0.0 == 0.0` compares equal but hashes differently), as
//! are cross-type numeric pins — such groups fall back to **Scanned**,
//! trading the lookup for unconditional soundness.

use std::collections::HashMap;

use ses_event::{AttrId, Event, PartitionKey, Value};

use crate::{AdmissionGroup, AdmissionLanes, CompiledPattern, Domain};

/// How the index routes events to one registered pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexClass {
    /// Some variable or negation carries no constant condition — the
    /// pattern must see every event.
    Every,
    /// Θ is provably unsatisfiable — the pattern sees no event at all.
    Never,
    /// Every admission group is pinned to a point: events reach the
    /// pattern through the hash lookup.
    Indexed,
    /// The admission predicate is evaluated against every event.
    Scanned,
}

/// The `(attribute, value)` point every event satisfying group `g` of
/// `lanes` is pinned to, when one exists and its equality is
/// hash-faithful (see the module docs). Groups whose interval domain is
/// provably empty return the marker `Empty` instead — no event satisfies
/// them, and the caller drops them outright.
fn group_point(
    pattern: &CompiledPattern,
    lanes: &AdmissionLanes,
    g: &AdmissionGroup,
) -> GroupPoint {
    let conds = || g.lanes.iter().map(|&i| &lanes.lanes()[i]);
    let mut attrs: Vec<AttrId> = conds().map(|l| l.attr).collect();
    attrs.sort_unstable();
    attrs.dedup();
    let mut point = GroupPoint::None;
    for attr in attrs {
        let mut dom = Domain::top();
        for l in conds().filter(|l| l.attr == attr) {
            dom.constrain(l.op, &l.value);
        }
        if dom.is_empty() {
            return GroupPoint::Empty;
        }
        if dom.is_poisoned() || !matches!(point, GroupPoint::None) {
            continue;
        }
        if let Some(v) = dom.point() {
            let hash_faithful = matches!(v, Value::Int(_) | Value::Str(_) | Value::Bool(_))
                && v.attr_type() == pattern.schema().attr_type(attr);
            if hash_faithful {
                point = GroupPoint::At(attr, v.clone());
            }
        }
    }
    point
}

enum GroupPoint {
    /// No hash-faithful point — the group forces a scan.
    None,
    /// Pinned to `(attr, value)`.
    At(AttrId, Value),
    /// The conjunction is provably unsatisfiable — drop the group.
    Empty,
}

/// Per-pattern admission predicate.
#[derive(Debug, Clone)]
enum Admission {
    Every,
    Never,
    /// The event must fully satisfy at least one of the listed groups of
    /// the pattern's lanes — those whose conjunction is satisfiable.
    Groups {
        lanes: AdmissionLanes,
        kept: Vec<AdmissionGroup>,
    },
}

/// An event→pattern predicate index over N compiled patterns sharing
/// one schema.
///
/// Built once at bank construction; [`PatternIndex::admitted_into`] lists
/// the ids of the patterns an event must reach, and
/// [`PatternIndex::admits`] answers the per-pattern question directly.
/// See the module docs for the admission criterion and its soundness.
#[derive(Debug, Clone)]
pub struct PatternIndex {
    admissions: Vec<Admission>,
    classes: Vec<IndexClass>,
    /// Patterns that receive every event.
    every: Vec<usize>,
    /// Patterns whose predicate is evaluated per event.
    scan: Vec<usize>,
    /// Point subscriptions: `(attr, value-key) → pattern ids` (deduped,
    /// ascending). Candidates are verified against the full admission
    /// predicate before routing.
    point: HashMap<(AttrId, PartitionKey), Vec<usize>>,
    /// Distinct attributes with point subscriptions — the keys a lookup
    /// probes.
    point_attrs: Vec<AttrId>,
}

impl PatternIndex {
    /// Builds the index over `patterns`, in registration order. All
    /// patterns must be compiled against the same schema (the bank
    /// enforces this; the index itself only reads attribute ids).
    pub fn build<'a>(patterns: impl IntoIterator<Item = &'a CompiledPattern>) -> PatternIndex {
        let mut idx = PatternIndex {
            admissions: Vec::new(),
            classes: Vec::new(),
            every: Vec::new(),
            scan: Vec::new(),
            point: HashMap::new(),
            point_attrs: Vec::new(),
        };
        for (id, cp) in patterns.into_iter().enumerate() {
            let (admission, class) = classify(cp, id, &mut idx.point);
            match class {
                IndexClass::Every => idx.every.push(id),
                IndexClass::Scanned => idx.scan.push(id),
                IndexClass::Indexed | IndexClass::Never => {}
            }
            idx.admissions.push(admission);
            idx.classes.push(class);
        }
        idx.point_attrs = idx.point.keys().map(|(a, _)| *a).collect();
        idx.point_attrs.sort_unstable();
        idx.point_attrs.dedup();
        for ids in idx.point.values_mut() {
            ids.sort_unstable();
            ids.dedup();
        }
        idx
    }

    /// Number of registered patterns.
    pub fn len(&self) -> usize {
        self.admissions.len()
    }

    /// `true` iff no pattern is registered.
    pub fn is_empty(&self) -> bool {
        self.admissions.is_empty()
    }

    /// How the index routes events to pattern `id`.
    pub fn class(&self, id: usize) -> IndexClass {
        self.classes[id]
    }

    /// Number of `(attribute, value)` point subscriptions.
    pub fn point_subscriptions(&self) -> usize {
        self.point.values().map(Vec::len).sum()
    }

    /// `true` iff `event` must reach pattern `id`: it satisfies some
    /// admission group in full (or the pattern is classified `Every`).
    pub fn admits(&self, id: usize, event: &Event) -> bool {
        match &self.admissions[id] {
            Admission::Every => true,
            Admission::Never => false,
            Admission::Groups { lanes, kept } => kept.iter().any(|g| lanes.group_holds(g, event)),
        }
    }

    /// Writes into `out` (cleared first) the ids of every pattern
    /// `event` must reach, ascending and deduped: the `Every` patterns,
    /// the scanned patterns whose predicate holds, and the verified
    /// point-lookup candidates. The caller owns and reuses the buffer —
    /// this runs once per pushed event.
    pub fn admitted_into(&self, event: &Event, out: &mut Vec<usize>) {
        out.clear();
        out.extend_from_slice(&self.every);
        out.extend(self.scan.iter().copied().filter(|&i| self.admits(i, event)));
        for &attr in &self.point_attrs {
            let key = (attr, PartitionKey::of(event.value(attr)));
            if let Some(ids) = self.point.get(&key) {
                out.extend(ids.iter().copied().filter(|&i| self.admits(i, event)));
            }
        }
        out.sort_unstable();
        out.dedup();
    }
}

/// Builds pattern `id`'s admission groups and classification, inserting
/// point subscriptions into `point` as a side effect.
///
/// The group derivation itself lives in [`AdmissionLanes`] — the same
/// enumeration the columnar evaluation layer consumes — so index
/// admission and bitmask admission cannot drift apart.
fn classify(
    cp: &CompiledPattern,
    id: usize,
    point: &mut HashMap<(AttrId, PartitionKey), Vec<usize>>,
) -> (Admission, IndexClass) {
    if !cp.is_satisfiable() {
        return (Admission::Never, IndexClass::Never);
    }
    let lanes = AdmissionLanes::of(cp);
    if lanes.groups().iter().any(|g| g.lanes.is_empty()) {
        // An unconstrained variable (any event could bind) or a negation
        // whose constant conjunction holds vacuously (any event could be
        // a killer).
        return (Admission::Every, IndexClass::Every);
    }
    // No groups at all (no variables and no negations) is nothing to
    // advance: indexed, and never admitted.
    let mut kept = Vec::with_capacity(lanes.groups().len());
    let mut all_pointed = true;
    let mut points = Vec::new();
    for g in lanes.groups() {
        match group_point(cp, &lanes, g) {
            // No event satisfies the group's conjunction: admitting
            // through it is impossible, so it contributes nothing.
            GroupPoint::Empty => continue,
            GroupPoint::At(attr, value) => points.push((attr, value)),
            GroupPoint::None => all_pointed = false,
        }
        kept.push(g.clone());
    }
    let class = if all_pointed {
        for (attr, value) in points {
            point
                .entry((attr, PartitionKey::of(&value)))
                .or_default()
                .push(id);
        }
        IndexClass::Indexed
    } else {
        IndexClass::Scanned
    };
    (Admission::Groups { lanes, kept }, class)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Pattern;
    use ses_event::{AttrType, CmpOp, Duration, Schema, Timestamp};

    fn schema() -> Schema {
        Schema::builder()
            .attr("L", AttrType::Str)
            .attr("ID", AttrType::Int)
            .build()
            .unwrap()
    }

    fn event(l: &str, id: i64) -> Event {
        Event::new(Timestamp::new(0), vec![Value::from(l), Value::from(id)])
    }

    fn admitted(idx: &PatternIndex, event: &Event) -> Vec<usize> {
        // Stale content must not leak into the answer.
        let mut out = vec![usize::MAX];
        idx.admitted_into(event, &mut out);
        out
    }

    fn typed(a: &str, b: &str) -> CompiledPattern {
        Pattern::builder()
            .set(|s| s.var("a").var("b"))
            .cond_const("a", "L", CmpOp::Eq, a)
            .cond_const("b", "L", CmpOp::Eq, b)
            .within(Duration::ticks(5))
            .build()
            .unwrap()
            .compile(&schema())
            .unwrap()
    }

    #[test]
    fn typed_patterns_are_point_indexed() {
        let ps = [typed("A", "B"), typed("C", "D")];
        let idx = PatternIndex::build(&ps);
        assert_eq!(idx.len(), 2);
        assert_eq!(idx.class(0), IndexClass::Indexed);
        assert_eq!(idx.class(1), IndexClass::Indexed);
        assert_eq!(idx.point_subscriptions(), 4);
        assert_eq!(admitted(&idx, &event("A", 1)), vec![0]);
        assert_eq!(admitted(&idx, &event("D", 1)), vec![1]);
        assert!(idx.admits(0, &event("B", 1)));
        assert!(!idx.admits(0, &event("C", 1)));
    }

    #[test]
    fn unconstrained_variable_forces_every() {
        // `b` has no constant condition: any event could bind to it.
        let p = Pattern::builder()
            .set(|s| s.var("a").var("b"))
            .cond_const("a", "L", CmpOp::Eq, "A")
            .within(Duration::ticks(5))
            .build()
            .unwrap()
            .compile(&schema())
            .unwrap();
        let idx = PatternIndex::build([&p, &typed("C", "D")]);
        assert_eq!(idx.class(0), IndexClass::Every);
        // Even an event matching no constant of pattern 0 reaches it.
        assert_eq!(admitted(&idx, &event("Z", 9)), vec![0]);
        assert_eq!(admitted(&idx, &event("C", 9)), vec![0, 1]);
    }

    #[test]
    fn overlapping_constraints_route_to_all_matching_patterns() {
        // Both patterns want A events for their first variable.
        let ps = [typed("A", "B"), typed("A", "C")];
        let idx = PatternIndex::build(&ps);
        assert_eq!(admitted(&idx, &event("A", 1)), vec![0, 1]);
        assert_eq!(admitted(&idx, &event("B", 1)), vec![0]);
        assert_eq!(admitted(&idx, &event("C", 1)), vec![1]);
    }

    #[test]
    fn foreign_event_types_route_nowhere() {
        let ps = [typed("A", "B"), typed("C", "D")];
        let idx = PatternIndex::build(&ps);
        assert!(admitted(&idx, &event("X", 1)).is_empty());
    }

    #[test]
    fn unsatisfiable_pattern_is_never_routed() {
        // ID > 10 ∧ ID < 5 is provably empty (SES001).
        let dead = Pattern::builder()
            .set(|s| s.var("a"))
            .cond_const("a", "L", CmpOp::Eq, "A")
            .cond_const("a", "ID", CmpOp::Gt, 10)
            .cond_const("a", "ID", CmpOp::Lt, 5)
            .within(Duration::ticks(5))
            .build()
            .unwrap()
            .compile(&schema())
            .unwrap();
        assert!(!dead.is_satisfiable());
        let idx = PatternIndex::build([&dead, &typed("A", "B")]);
        assert_eq!(idx.class(0), IndexClass::Never);
        // The A event matches the dead pattern's constants, but routing
        // it would be wasted work: Θ can never be satisfied.
        assert_eq!(admitted(&idx, &event("A", 7)), vec![1]);
        assert!(!idx.admits(0, &event("A", 7)));
    }

    #[test]
    fn range_conditions_fall_back_to_scanned() {
        // `ID > 3` pins no point: the pattern is scanned, not indexed —
        // but still skips events outside the range.
        let p = Pattern::builder()
            .set(|s| s.var("a"))
            .cond_const("a", "ID", CmpOp::Gt, 3)
            .within(Duration::ticks(5))
            .build()
            .unwrap()
            .compile(&schema())
            .unwrap();
        let idx = PatternIndex::build([&p]);
        assert_eq!(idx.class(0), IndexClass::Scanned);
        assert_eq!(idx.point_subscriptions(), 0);
        assert_eq!(admitted(&idx, &event("A", 5)), vec![0]);
        assert!(admitted(&idx, &event("A", 2)).is_empty());
    }

    #[test]
    fn mixed_point_and_range_group_verifies_in_full() {
        // L = 'A' ∧ ID > 3 on one variable: indexed under ('L', "A"),
        // but the lookup candidate is verified against the whole
        // conjunction — an A event with a small ID is still skipped.
        let p = Pattern::builder()
            .set(|s| s.var("a"))
            .cond_const("a", "L", CmpOp::Eq, "A")
            .cond_const("a", "ID", CmpOp::Gt, 3)
            .within(Duration::ticks(5))
            .build()
            .unwrap()
            .compile(&schema())
            .unwrap();
        let idx = PatternIndex::build([&p]);
        assert_eq!(idx.class(0), IndexClass::Indexed);
        assert_eq!(admitted(&idx, &event("A", 5)), vec![0]);
        assert!(admitted(&idx, &event("A", 1)).is_empty());
    }

    #[test]
    fn negation_constants_admit_potential_killers() {
        // a THEN b with NOT x (x.L = 'X') guarding the gap: X events
        // bind to no variable but can kill matches — they must be
        // admitted.
        let p = Pattern::builder()
            .set(|s| s.var("a"))
            .negate("x")
            .set(|s| s.var("b"))
            .cond_const("a", "L", CmpOp::Eq, "A")
            .cond_const("b", "L", CmpOp::Eq, "B")
            .neg_cond_const("x", "L", CmpOp::Eq, "X")
            .within(Duration::ticks(5))
            .build()
            .unwrap()
            .compile(&schema())
            .unwrap();
        let idx = PatternIndex::build([&p]);
        assert_eq!(idx.class(0), IndexClass::Indexed);
        assert!(idx.admits(0, &event("X", 1)));
        assert!(admitted(&idx, &event("Y", 1)).is_empty());
    }

    #[test]
    fn negation_without_constants_forces_every() {
        // x is only correlated (x.ID = a.ID): whether an event kills
        // depends on the bindings, so every event must be admitted.
        let p = Pattern::builder()
            .set(|s| s.var("a"))
            .negate("x")
            .set(|s| s.var("b"))
            .cond_const("a", "L", CmpOp::Eq, "A")
            .cond_const("b", "L", CmpOp::Eq, "B")
            .neg_cond_vars("x", "ID", CmpOp::Eq, "a", "ID")
            .within(Duration::ticks(5))
            .build()
            .unwrap()
            .compile(&schema())
            .unwrap();
        let idx = PatternIndex::build([&p]);
        assert_eq!(idx.class(0), IndexClass::Every);
        assert!(idx.admits(0, &event("Z", 1)));
    }

    #[test]
    fn ne_point_conflict_drops_the_group() {
        // L = 'A' ∧ L ≠ 'A' is empty: variable `a` can never bind, so
        // its group is dropped and nothing is ever admitted through it.
        let p = Pattern::builder()
            .set(|s| s.var("a").var("b"))
            .cond_const("a", "L", CmpOp::Eq, "A")
            .cond_const("a", "L", CmpOp::Ne, "A")
            .cond_const("b", "L", CmpOp::Eq, "B")
            .within(Duration::ticks(5))
            .build()
            .unwrap()
            .compile(&schema())
            .unwrap();
        let idx = PatternIndex::build([&p]);
        // Either the analyzer already proved Θ empty (Never), or the
        // index dropped the empty group; both route the A event nowhere.
        assert!(!idx.admits(0, &event("A", 1)));
    }

    #[test]
    fn float_equality_stays_scanned_and_sign_zero_routes() {
        // `-0.0 == 0.0` compares equal but the two values hash to
        // different partition keys, so a Float point pin must never
        // reach the hash map: the group stays Scanned, and the scan's
        // value comparison treats both zeros identically.
        let fschema = Schema::builder()
            .attr("L", AttrType::Str)
            .attr("V", AttrType::Float)
            .build()
            .unwrap();
        let p = Pattern::builder()
            .set(|s| s.var("a"))
            .cond_const("a", "L", CmpOp::Eq, "A")
            .cond_const("a", "V", CmpOp::Eq, 0.0)
            .within(Duration::ticks(5))
            .build()
            .unwrap()
            .compile(&fschema)
            .unwrap();
        let idx = PatternIndex::build([&p]);
        // L = 'A' pins a hash-faithful Str point, so the group may
        // still be Indexed through L — but never through V. Whatever
        // the class, both zero spellings must route identically.
        assert_eq!(
            idx.point_subscriptions(),
            usize::from(idx.class(0) == IndexClass::Indexed)
        );
        let pos = Event::new(Timestamp::new(0), vec![Value::from("A"), Value::from(0.0)]);
        let neg = Event::new(Timestamp::new(0), vec![Value::from("A"), Value::from(-0.0)]);
        assert!(idx.admits(0, &pos));
        assert!(idx.admits(0, &neg));
        assert_eq!(admitted(&idx, &pos), vec![0]);
        assert_eq!(admitted(&idx, &neg), vec![0]);

        // With *only* the Float pin available the pattern must fall all
        // the way back to Scanned.
        let p2 = Pattern::builder()
            .set(|s| s.var("a"))
            .cond_const("a", "V", CmpOp::Eq, 0.0)
            .within(Duration::ticks(5))
            .build()
            .unwrap()
            .compile(&fschema)
            .unwrap();
        let idx2 = PatternIndex::build([&p2]);
        assert_eq!(idx2.class(0), IndexClass::Scanned);
        assert_eq!(idx2.point_subscriptions(), 0);
        let neg_only = Event::new(Timestamp::new(0), vec![Value::from("Z"), Value::from(-0.0)]);
        assert_eq!(admitted(&idx2, &neg_only), vec![0]);
    }

    #[test]
    fn empty_bank_admits_nothing() {
        let idx = PatternIndex::build(std::iter::empty::<&CompiledPattern>());
        assert!(idx.is_empty());
        assert!(admitted(&idx, &event("A", 1)).is_empty());
    }
}
