//! Event→pattern predicate index: the one admission verdict of a push.
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
//! The index answers both questions at once. [`PatternIndex::admitted_into`]
//! lists every pattern an event must reach together with its **variable
//! mask** — bit `v` set iff the event satisfies every constant condition
//! of `VarId(v)` — which is exactly the mask the pattern's matcher filters
//! and binds with. A pattern admitted only through a negation's group
//! gets mask `0`: it binds nothing, but it must see the event. Every
//! push path of `ses-core` takes its mask from here, a lone
//! `StreamMatcher` through an index over its one pattern.
//!
//! # Classification
//!
//! Each pattern is classified once at build time:
//!
//! * **Every** — some variable or negation has *no* constant conditions:
//!   any event could advance the pattern, so it receives every event, its
//!   groups evaluated for the mask.
//! * **Never** — Θ is provably unsatisfiable (`SES001`): the matcher can
//!   never emit, so no event is routed (heartbeats only).
//! * **Indexed** — every admission group pins some attribute to a single
//!   point value (computed with the interval [`Domain`]): the group
//!   subscribes under that value in the attribute's typed table, and a
//!   push probes one table per pinned attribute instead of evaluating N
//!   predicates.
//! * **Scanned** — constrained, but at least one group is not a point
//!   (e.g. only range conditions): every group is evaluated per event.
//!   Still skips — just without the lookup.
//!
//! # Typed point tables
//!
//! Point subscriptions live in one table per attribute, typed by the
//! schema's attribute type: `Str` and `Int` tables are hash maps probed
//! with the event's borrowed value (no key is built, nothing is cloned),
//! hashed with `ses-event`'s [`ses_event::BytesHasher`]; a `Bool` table
//! is two slots. Only `Int`/`Str`/`Bool` points whose type equals the
//! attribute's are subscribed: a checked row holds exactly that type
//! there, and for it condition equality is key equality. Floats are
//! excluded (`-0.0 == 0.0` compares equal but the two differ bitwise),
//! as are cross-type numeric pins — such groups fall back to
//! **Scanned**, trading the lookup for unconditional soundness.
//!
//! A table entry records, per subscribed pattern, what the pin decides.
//! A group whose every lane reads the pinned attribute and holds at the
//! pinned value is **implied**: an event that finds the entry satisfies
//! it, so its variable's bit is recorded in the entry and never
//! re-evaluated. Only the lanes of the other groups that the pin does not
//! decide — those on other attributes — are evaluated per hit. Each group
//! is pinned under one value of one attribute, and an event carries one
//! value per attribute, so every group of an indexed pattern is decided
//! at most once per event and a group not found in any table does not
//! hold: the masks the tables assemble are exact.

use std::collections::HashMap;
use std::sync::Arc;

use ses_event::{AttrId, BuildBytesHasher, Event, Value};

use crate::{AdmissionGroup, AdmissionLanes, CompiledPattern, ConstLane, Domain, LaneOwner};

/// How the index routes events to one registered pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexClass {
    /// Some variable or negation carries no constant condition — the
    /// pattern must see every event.
    Every,
    /// Θ is provably unsatisfiable — the pattern sees no event at all.
    Never,
    /// Every admission group is pinned to a point: events reach the
    /// pattern through the typed point tables.
    Indexed,
    /// Every admission group is evaluated against every event.
    Scanned,
}

/// The `(attribute, value)` point every event satisfying group `g` of
/// `lanes` is pinned to, when one exists and its equality is key
/// equality (see the module docs). Groups whose interval domain is
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
            let keyed = matches!(v, Value::Int(_) | Value::Str(_) | Value::Bool(_))
                && v.attr_type() == pattern.schema().attr_type(attr);
            if keyed {
                point = GroupPoint::At(attr, v.clone());
            }
        }
    }
    point
}

enum GroupPoint {
    /// No keyed point — the group forces a scan.
    None,
    /// Pinned to `(attr, value)`.
    At(AttrId, Value),
    /// The conjunction is provably unsatisfiable — drop the group.
    Empty,
}

/// One admission group, reduced to what an event must still be tested
/// for.
#[derive(Debug, Clone)]
struct Check {
    /// The variable bits the group sets when it holds — `0` for a
    /// negation's group, which admits without binding.
    bits: u64,
    /// Lanes (indices into the pattern's [`AdmissionLanes::lanes`]) still
    /// to evaluate; none when the group holds outright.
    lanes: Vec<usize>,
}

/// The verdict of `checks` on `event`: `None` when no group holds,
/// otherwise the OR of the holding groups' bits.
fn verdict(checks: &[Check], lanes: &[ConstLane], event: &Event) -> Option<u64> {
    let mut verdict = None;
    for check in checks {
        if check.lanes.iter().all(|&i| lanes[i].eval(event)) {
            verdict = Some(verdict.unwrap_or(0) | check.bits);
        }
    }
    verdict
}

/// One pattern's subscription under one table key: its groups pinned
/// there. The groups the pin implies come first, merged into one check
/// without lanes.
#[derive(Debug, Clone)]
struct Hit {
    pattern: usize,
    checks: Vec<Check>,
}

/// The point subscriptions of one attribute, typed by the attribute's
/// schema type and probed with the event's borrowed value. Each entry's
/// hits ascend by pattern id.
#[derive(Debug, Clone)]
enum Points {
    Str(HashMap<Arc<str>, Vec<Hit>, BuildBytesHasher>),
    Int(HashMap<i64, Vec<Hit>, BuildBytesHasher>),
    /// Indexed by the value (`false` = 0).
    Bool([Vec<Hit>; 2]),
}

impl Points {
    /// An empty table for values of `value`'s type.
    fn for_value(value: &Value) -> Points {
        match value {
            Value::Str(_) => Points::Str(HashMap::default()),
            Value::Int(_) => Points::Int(HashMap::default()),
            Value::Bool(_) => Points::Bool([Vec::new(), Vec::new()]),
            Value::Float(_) => unreachable!("Float points are never subscribed"),
        }
    }

    /// The hits subscribed under `value`.
    fn get(&self, value: &Value) -> &[Hit] {
        let hits = match (self, value) {
            (Points::Str(table), Value::Str(s)) => table.get(&**s),
            (Points::Int(table), Value::Int(x)) => table.get(x),
            (Points::Bool(slots), Value::Bool(b)) => Some(&slots[usize::from(*b)]),
            _ => None,
        };
        hits.map_or(&[], Vec::as_slice)
    }

    /// The hits subscribed under `value`, created empty if need be.
    fn entry(&mut self, value: &Value) -> &mut Vec<Hit> {
        match (self, value) {
            (Points::Str(table), Value::Str(s)) => table.entry(Arc::clone(s)).or_default(),
            (Points::Int(table), Value::Int(x)) => table.entry(*x).or_default(),
            (Points::Bool(slots), Value::Bool(b)) => &mut slots[usize::from(*b)],
            _ => unreachable!("an attribute's points share its schema type"),
        }
    }

    /// Number of `(value, pattern)` subscriptions.
    fn len(&self) -> usize {
        match self {
            Points::Str(table) => table.values().map(Vec::len).sum(),
            Points::Int(table) => table.values().map(Vec::len).sum(),
            Points::Bool(slots) => slots.iter().map(Vec::len).sum(),
        }
    }
}

/// Per-pattern admission predicate: the pattern's lanes and one check
/// per admission group an event can satisfy (provably empty groups are
/// dropped — they hold on no event and set no bit).
#[derive(Debug, Clone)]
struct Admission {
    lanes: Vec<ConstLane>,
    checks: Vec<Check>,
}

/// An event→pattern predicate index over N compiled patterns sharing
/// one schema.
///
/// Built once at bank construction; [`PatternIndex::admitted_into`] lists
/// the patterns an event must reach, each with its variable mask, and
/// [`PatternIndex::verdict`] evaluates one pattern's groups in full. See
/// the module docs for the admission criterion and its soundness.
#[derive(Debug, Clone)]
pub struct PatternIndex {
    /// `None` for a `Never` pattern.
    admissions: Vec<Option<Admission>>,
    classes: Vec<IndexClass>,
    /// `Every` and `Scanned` patterns, ascending: their groups are
    /// evaluated on every event.
    checked: Vec<usize>,
    /// The typed point tables, one per attribute with subscriptions,
    /// ascending by attribute.
    points: Vec<(AttrId, Points)>,
}

impl PatternIndex {
    /// Builds the index over `patterns`, in registration order. All
    /// patterns must be compiled against the same schema (the bank
    /// enforces this; the index itself only reads attribute ids).
    pub fn build<'a>(patterns: impl IntoIterator<Item = &'a CompiledPattern>) -> PatternIndex {
        let mut idx = PatternIndex {
            admissions: Vec::new(),
            classes: Vec::new(),
            checked: Vec::new(),
            points: Vec::new(),
        };
        for (id, cp) in patterns.into_iter().enumerate() {
            let (admission, class) = idx.classify(cp, id);
            if matches!(class, IndexClass::Every | IndexClass::Scanned) {
                idx.checked.push(id);
            }
            idx.admissions.push(admission);
            idx.classes.push(class);
        }
        idx.points.sort_unstable_by_key(|&(attr, _)| attr);
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

    /// Number of `(attribute, value)` point subscriptions, counted once
    /// per pattern subscribed under each.
    pub fn point_subscriptions(&self) -> usize {
        self.points.iter().map(|(_, points)| points.len()).sum()
    }

    /// Pattern `id`'s admission verdict on `event`, every group evaluated
    /// in full: `None` when no group holds (the event cannot advance the
    /// pattern), otherwise its variable mask — `Some(0)` when only a
    /// negation's group holds.
    pub fn verdict(&self, id: usize, event: &Event) -> Option<u64> {
        let a = self.admissions[id].as_ref()?;
        verdict(&a.checks, &a.lanes, event)
    }

    /// Writes into `out` (cleared first) every pattern `event` must
    /// reach, with its variable mask, ascending by pattern id and each
    /// once: the `Every` patterns, the scanned patterns some group of
    /// which holds, and the point-table hits that hold. The caller owns
    /// and reuses the buffer — this runs once per pushed event.
    pub fn admitted_into(&self, event: &Event, out: &mut Vec<(usize, u64)>) {
        out.clear();
        for &id in &self.checked {
            if let Some(mask) = self.verdict(id, event) {
                out.push((id, mask));
            }
        }
        for (attr, points) in &self.points {
            for hit in points.get(event.value(*attr)) {
                let lanes = match &self.admissions[hit.pattern] {
                    Some(a) => &a.lanes[..],
                    None => unreachable!("a Never pattern subscribes nowhere"),
                };
                if let Some(mask) = verdict(&hit.checks, lanes, event) {
                    out.push((hit.pattern, mask));
                }
            }
        }
        // A pattern pinned on two attributes is hit once per attribute:
        // its groups are disjoint between the hits, so their masks OR.
        if out.windows(2).any(|w| w[0].0 >= w[1].0) {
            out.sort_unstable_by_key(|&(id, _)| id);
            out.dedup_by(|later, kept| {
                let same = later.0 == kept.0;
                if same {
                    kept.1 |= later.1;
                }
                same
            });
        }
    }

    /// Builds pattern `id`'s admission and classification, subscribing
    /// its groups in the point tables when it is `Indexed`.
    ///
    /// The group derivation itself lives in [`AdmissionLanes`] — the same
    /// enumeration the columnar evaluation layer consumes — so index
    /// admission and bitmask admission cannot drift apart.
    fn classify(&mut self, cp: &CompiledPattern, id: usize) -> (Option<Admission>, IndexClass) {
        if !cp.is_satisfiable() {
            return (None, IndexClass::Never);
        }
        let lanes = AdmissionLanes::of(cp);
        // An unconstrained variable (any event could bind) or a negation
        // whose constant conjunction holds vacuously (any event could be
        // a killer).
        let every = lanes.groups().iter().any(|g| g.lanes.is_empty());
        let mut checks = Vec::with_capacity(lanes.groups().len());
        let mut pins = Vec::new();
        let mut all_pinned = true;
        for g in lanes.groups() {
            let bits = match g.owner {
                LaneOwner::Var(v) => v.bit(),
                LaneOwner::Negation(_) => 0,
            };
            match group_point(cp, &lanes, g) {
                // No event satisfies the group's conjunction: admitting
                // through it is impossible, and its bit is never set.
                GroupPoint::Empty => continue,
                GroupPoint::At(attr, value) => pins.push((checks.len(), attr, value)),
                GroupPoint::None => all_pinned = false,
            }
            checks.push(Check {
                bits,
                lanes: g.lanes.clone(),
            });
        }
        // No groups at all (no variables and no negations) is nothing to
        // advance: indexed, and never admitted.
        let class = if every {
            IndexClass::Every
        } else if all_pinned {
            for (check, attr, value) in pins {
                self.subscribe(id, &lanes, &checks[check], attr, &value);
            }
            IndexClass::Indexed
        } else {
            IndexClass::Scanned
        };
        let admission = Admission {
            lanes: lanes.lanes().to_vec(),
            checks,
        };
        (Some(admission), class)
    }

    /// Subscribes `check`, a group of pattern `id`, under `attr = value`.
    /// The lanes the pin decides are dropped from it; when none is left
    /// the group is implied and its bits merge into the hit's first check.
    fn subscribe(
        &mut self,
        id: usize,
        lanes: &AdmissionLanes,
        check: &Check,
        attr: AttrId,
        value: &Value,
    ) {
        let residual: Vec<usize> = check
            .lanes
            .iter()
            .copied()
            .filter(|&i| {
                let lane = &lanes.lanes()[i];
                lane.attr != attr || !value.compare(lane.op, &lane.value)
            })
            .collect();
        let at = match self.points.iter().position(|(a, _)| *a == attr) {
            Some(at) => at,
            None => {
                self.points.push((attr, Points::for_value(value)));
                self.points.len() - 1
            }
        };
        let hits = self.points[at].1.entry(value);
        // Patterns are classified in id order: this pattern's hit, if it
        // has one here, is the last.
        if hits.last().is_none_or(|h| h.pattern != id) {
            hits.push(Hit {
                pattern: id,
                checks: Vec::new(),
            });
        }
        let checks = &mut hits.last_mut().expect("pushed above").checks;
        if residual.is_empty() {
            match checks.first_mut() {
                Some(implied) if implied.lanes.is_empty() => implied.bits |= check.bits,
                _ => checks.insert(
                    0,
                    Check {
                        bits: check.bits,
                        lanes: Vec::new(),
                    },
                ),
            }
        } else {
            checks.push(Check {
                bits: check.bits,
                lanes: residual,
            });
        }
    }
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

    /// The admitted patterns with their masks.
    fn routed(idx: &PatternIndex, event: &Event) -> Vec<(usize, u64)> {
        // Stale content must not leak into the answer.
        let mut out = vec![(usize::MAX, u64::MAX)];
        idx.admitted_into(event, &mut out);
        out
    }

    fn admitted(idx: &PatternIndex, event: &Event) -> Vec<usize> {
        routed(idx, event).into_iter().map(|(id, _)| id).collect()
    }

    fn admits(idx: &PatternIndex, id: usize, event: &Event) -> bool {
        idx.verdict(id, event).is_some()
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
        assert!(admits(&idx, 0, &event("B", 1)));
        assert!(!admits(&idx, 0, &event("C", 1)));
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
        assert!(!admits(&idx, 0, &event("A", 7)));
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
        assert!(admits(&idx, 0, &event("X", 1)));
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
        assert!(admits(&idx, 0, &event("Z", 1)));
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
        assert!(!admits(&idx, 0, &event("A", 1)));
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
        assert!(admits(&idx, 0, &pos));
        assert!(admits(&idx, 0, &neg));
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
    fn two_pins_on_two_attributes_or_their_hits() {
        // `a` is pinned on L, `b` on ID: an event can find the pattern in
        // both tables, and its mask is the OR of the two hits.
        let p = Pattern::builder()
            .set(|s| s.var("a").var("b"))
            .cond_const("a", "L", CmpOp::Eq, "A")
            .cond_const("b", "ID", CmpOp::Eq, 1)
            .within(Duration::ticks(5))
            .build()
            .unwrap()
            .compile(&schema())
            .unwrap();
        let idx = PatternIndex::build([&typed("B", "C"), &p]);
        assert_eq!(idx.class(1), IndexClass::Indexed);
        assert_eq!(routed(&idx, &event("A", 1)), vec![(1, 0b11)]);
        assert_eq!(routed(&idx, &event("A", 2)), vec![(1, 0b01)]);
        assert_eq!(routed(&idx, &event("B", 1)), vec![(0, 0b01), (1, 0b10)]);
        assert!(routed(&idx, &event("Z", 2)).is_empty());
    }

    #[test]
    fn implied_groups_set_their_bits_and_extra_lanes_are_evaluated() {
        // `a` and `b` both read only L = 'A': the pin implies both. `c`
        // adds ID > 3 beside its pin, which each hit evaluates.
        let p = Pattern::builder()
            .set(|s| s.var("a").var("b").var("c"))
            .cond_const("a", "L", CmpOp::Eq, "A")
            .cond_const("b", "L", CmpOp::Eq, "A")
            .cond_const("c", "L", CmpOp::Eq, "A")
            .cond_const("c", "ID", CmpOp::Gt, 3)
            .within(Duration::ticks(5))
            .build()
            .unwrap()
            .compile(&schema())
            .unwrap();
        let idx = PatternIndex::build([&p]);
        assert_eq!(idx.class(0), IndexClass::Indexed);
        assert_eq!(idx.point_subscriptions(), 1);
        assert_eq!(routed(&idx, &event("A", 5)), vec![(0, 0b111)]);
        assert_eq!(routed(&idx, &event("A", 1)), vec![(0, 0b011)]);
        assert_eq!(idx.verdict(0, &event("A", 1)), Some(0b011));
    }

    #[test]
    fn a_negation_admits_with_mask_zero() {
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
        assert_eq!(routed(&idx, &event("X", 1)), vec![(0, 0)]);
        assert_eq!(routed(&idx, &event("B", 1)), vec![(0, 0b10)]);
    }

    #[test]
    fn bool_points_take_the_two_slot_table() {
        let bschema = Schema::builder()
            .attr("L", AttrType::Str)
            .attr("F", AttrType::Bool)
            .build()
            .unwrap();
        let p = Pattern::builder()
            .set(|s| s.var("a").var("b"))
            .cond_const("a", "F", CmpOp::Eq, true)
            .cond_const("b", "F", CmpOp::Eq, false)
            .cond_const("b", "L", CmpOp::Eq, "B")
            .within(Duration::ticks(5))
            .build()
            .unwrap()
            .compile(&bschema)
            .unwrap();
        let idx = PatternIndex::build([&p]);
        assert_eq!(idx.class(0), IndexClass::Indexed);
        let ev =
            |l: &str, f: bool| Event::new(Timestamp::new(0), vec![Value::from(l), Value::from(f)]);
        assert_eq!(routed(&idx, &ev("B", true)), vec![(0, 0b01)]);
        assert_eq!(routed(&idx, &ev("B", false)), vec![(0, 0b10)]);
        assert!(routed(&idx, &ev("C", false)).is_empty());
    }

    #[test]
    fn every_and_scanned_patterns_carry_their_masks() {
        // `b` is unconstrained (Every): its bit is set on every event.
        let every = Pattern::builder()
            .set(|s| s.var("a").var("b"))
            .cond_const("a", "L", CmpOp::Eq, "A")
            .within(Duration::ticks(5))
            .build()
            .unwrap()
            .compile(&schema())
            .unwrap();
        let scanned = Pattern::builder()
            .set(|s| s.var("a"))
            .cond_const("a", "ID", CmpOp::Gt, 3)
            .within(Duration::ticks(5))
            .build()
            .unwrap()
            .compile(&schema())
            .unwrap();
        let idx = PatternIndex::build([&every, &scanned]);
        assert_eq!(routed(&idx, &event("A", 5)), vec![(0, 0b11), (1, 0b1)]);
        assert_eq!(routed(&idx, &event("Z", 1)), vec![(0, 0b10)]);
    }

    #[test]
    fn empty_bank_admits_nothing() {
        let idx = PatternIndex::build(std::iter::empty::<&CompiledPattern>());
        assert!(idx.is_empty());
        assert!(admitted(&idx, &event("A", 1)).is_empty());
    }
}
