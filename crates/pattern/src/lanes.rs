//! Columnar-friendly enumeration of constant-condition admission lanes.
//!
//! [`PatternIndex`](crate::PatternIndex) derives one *admission group*
//! per positive variable and per negation — the conjunction of its
//! constant conditions — to decide which events a pattern must see at
//! all. The columnar evaluation layer in `ses-core` needs exactly the
//! same derivation, but in a batch-friendly shape: a deduplicated list
//! of distinct `(attr, op, constant)` **lanes**, each evaluated once
//! per event over a whole batch, plus per-group lane-index lists that
//! recombine lane bits into group admission bits.
//!
//! [`AdmissionLanes`] is that shared shape. Both consumers build from
//! it, so the group semantics cannot drift apart:
//!
//! * `PatternIndex` keeps the lanes, derives each group's point pin
//!   from them, and per event evaluates only the lanes a pin does not
//!   decide (see `index.rs`); [`AdmissionLanes::group_holds`] states a
//!   group's meaning one event at a time.
//! * `ses-core`'s `columnar` module evaluates each lane into a bitmask
//!   vector and ANDs a group's lanes word-by-word.
//!
//! Deduplication is sound because two lanes merge only when they agree
//! on attribute and operator and their constants are *same-variant*
//! equal (`f64 ==` for floats): such constants produce identical
//! [`Value::compare`] outcomes against every event value. Notably
//! `-0.0`/`0.0` merge (they compare identically under every operator)
//! while `NaN` never merges with anything — mirroring the discipline
//! `PatternIndex` applies to Float point pins. Cross-variant numeric
//! pairs like `Int(3)`/`Float(3.0)` are deliberately *not* merged:
//! integer comparison is exact while the float path rounds through
//! `f64`, so their outcomes can diverge on extreme integers.

use ses_event::{AttrId, CmpOp, Event, Value};

use crate::negation::CompiledNegRhs;
use crate::{CompiledPattern, CompiledRhs, VarId};

/// One distinct constant condition `attr ⟨op⟩ constant`, evaluated
/// against the event's own attributes (no bindings involved).
#[derive(Debug, Clone)]
pub struct ConstLane {
    /// Attribute the lane reads.
    pub attr: AttrId,
    /// Comparison operator.
    pub op: CmpOp,
    /// Constant right-hand side.
    pub value: Value,
}

impl ConstLane {
    /// Evaluates the lane against one event — the scalar reference
    /// semantics every batched evaluation must reproduce bit-for-bit.
    pub fn eval(&self, event: &Event) -> bool {
        event.value(self.attr).compare(self.op, &self.value)
    }
}

/// What an admission group guards: a positive variable's bindability or
/// a negation's potential to kill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LaneOwner {
    /// Group of positive variable `v`: an event can bind to `v` only
    /// if every lane holds.
    Var(VarId),
    /// Group of the pattern's `i`-th negation (in
    /// [`CompiledPattern::negations`] order): an event can violate it
    /// only if every lane holds.
    Negation(usize),
}

/// One admission group: the conjunction of the listed lanes.
///
/// An empty lane list means the owner is unconstrained — the group
/// holds on **every** event (`PatternIndex` classifies such patterns
/// `Every`; the columnar layer admits all batch positions).
#[derive(Debug, Clone)]
pub struct AdmissionGroup {
    /// Who the group admits for.
    pub owner: LaneOwner,
    /// Indices into [`AdmissionLanes::lanes`]; deduplicated, in first-
    /// occurrence order.
    pub lanes: Vec<usize>,
}

/// The full lane enumeration of one compiled pattern: distinct constant
/// conditions plus the per-variable / per-negation groups over them.
///
/// Group order is fixed: one group per positive variable in `VarId`
/// order, then one per negation in declaration order — the same order
/// `PatternIndex::classify` walks.
#[derive(Debug, Clone)]
pub struct AdmissionLanes {
    lanes: Vec<ConstLane>,
    groups: Vec<AdmissionGroup>,
    num_vars: usize,
}

impl AdmissionLanes {
    /// Enumerates `cp`'s lanes and admission groups.
    pub fn of(cp: &CompiledPattern) -> AdmissionLanes {
        let num_vars = cp.pattern().num_vars();
        let mut lanes: Vec<ConstLane> = Vec::new();
        let mut groups: Vec<AdmissionGroup> = Vec::with_capacity(num_vars);
        for v in 0..num_vars as u16 {
            let var = VarId(v);
            let mut group = AdmissionGroup {
                owner: LaneOwner::Var(var),
                lanes: Vec::new(),
            };
            for &ci in cp.const_conditions_of(var) {
                let c = cp.condition(ci);
                match &c.rhs {
                    CompiledRhs::Const(value) => {
                        push_lane(&mut lanes, &mut group.lanes, c.lhs_attr, c.op, value);
                    }
                    CompiledRhs::Attr { .. } => unreachable!("const_conditions_of is constant"),
                }
            }
            groups.push(group);
        }
        for (i, neg) in cp.negations().iter().enumerate() {
            let mut group = AdmissionGroup {
                owner: LaneOwner::Negation(i),
                lanes: Vec::new(),
            };
            for c in &neg.conditions {
                if let CompiledNegRhs::Const(value) = &c.rhs {
                    push_lane(&mut lanes, &mut group.lanes, c.attr, c.op, value);
                }
            }
            groups.push(group);
        }
        AdmissionLanes {
            lanes,
            groups,
            num_vars,
        }
    }

    /// The distinct constant-condition lanes, in first-occurrence order.
    pub fn lanes(&self) -> &[ConstLane] {
        &self.lanes
    }

    /// All admission groups: variables first (in `VarId` order), then
    /// negations (in declaration order).
    pub fn groups(&self) -> &[AdmissionGroup] {
        &self.groups
    }

    /// Number of positive variables (the first `num_vars` groups).
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// The admission group of positive variable `v`.
    pub fn var_group(&self, v: VarId) -> &AdmissionGroup {
        &self.groups[v.0 as usize]
    }

    /// The negation groups, in declaration order.
    pub fn negation_groups(&self) -> &[AdmissionGroup] {
        &self.groups[self.num_vars..]
    }

    /// `true` iff group `g` holds on `event` — every lane satisfied
    /// (vacuously true when the group has no lanes).
    pub fn group_holds(&self, g: &AdmissionGroup, event: &Event) -> bool {
        g.lanes.iter().all(|&i| self.lanes[i].eval(event))
    }
}

/// Appends the lane for `(attr, op, value)` to `group`, interning it in
/// `lanes` (linear scan — lane counts are small) and deduplicating
/// repeats within the group itself.
fn push_lane(
    lanes: &mut Vec<ConstLane>,
    group: &mut Vec<usize>,
    attr: AttrId,
    op: CmpOp,
    value: &Value,
) {
    let idx = lanes
        .iter()
        .position(|l| l.attr == attr && l.op == op && lane_value_eq(&l.value, value))
        .unwrap_or_else(|| {
            lanes.push(ConstLane {
                attr,
                op,
                value: value.clone(),
            });
            lanes.len() - 1
        });
    if !group.contains(&idx) {
        group.push(idx);
    }
}

/// Same-variant constant equality: merged constants must yield
/// identical `Value::compare` outcomes for every event value. `f64 ==`
/// gives exactly that for floats (merges `-0.0`/`0.0`, never `NaN`);
/// cross-variant numeric equality is rejected (see the module docs).
fn lane_value_eq(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Int(x), Value::Int(y)) => x == y,
        (Value::Float(x), Value::Float(y)) => x == y,
        (Value::Str(x), Value::Str(y)) => x == y,
        (Value::Bool(x), Value::Bool(y)) => x == y,
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Pattern;
    use ses_event::{AttrType, Duration, Schema, Timestamp};

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

    #[test]
    fn shared_constants_dedup_into_one_lane() {
        // Both variables demand L = 'A'; only `a` adds ID > 3.
        let p = Pattern::builder()
            .set(|s| s.var("a").var("b"))
            .cond_const("a", "L", CmpOp::Eq, "A")
            .cond_const("a", "ID", CmpOp::Gt, 3)
            .cond_const("b", "L", CmpOp::Eq, "A")
            .within(Duration::ticks(5))
            .build()
            .unwrap()
            .compile(&schema())
            .unwrap();
        let lanes = AdmissionLanes::of(&p);
        assert_eq!(lanes.lanes().len(), 2);
        assert_eq!(lanes.num_vars(), 2);
        let a = lanes.var_group(VarId(0));
        let b = lanes.var_group(VarId(1));
        assert_eq!(a.lanes.len(), 2);
        assert_eq!(b.lanes.len(), 1);
        // The shared L = 'A' lane is literally the same index.
        assert!(a.lanes.contains(&b.lanes[0]));
        assert!(lanes.group_holds(a, &event("A", 5)));
        assert!(!lanes.group_holds(a, &event("A", 1)));
        assert!(lanes.group_holds(b, &event("A", 1)));
        assert!(!lanes.group_holds(b, &event("B", 5)));
    }

    #[test]
    fn unconstrained_variable_has_empty_group() {
        let p = Pattern::builder()
            .set(|s| s.var("a").var("b"))
            .cond_const("a", "L", CmpOp::Eq, "A")
            .within(Duration::ticks(5))
            .build()
            .unwrap()
            .compile(&schema())
            .unwrap();
        let lanes = AdmissionLanes::of(&p);
        assert!(lanes.var_group(VarId(1)).lanes.is_empty());
        // Vacuous conjunction: holds on anything.
        assert!(lanes.group_holds(lanes.var_group(VarId(1)), &event("Z", 0)));
    }

    #[test]
    fn negation_constants_form_trailing_groups() {
        let p = Pattern::builder()
            .set(|s| s.var("a"))
            .negate("x")
            .set(|s| s.var("b"))
            .cond_const("a", "L", CmpOp::Eq, "A")
            .cond_const("b", "L", CmpOp::Eq, "B")
            .neg_cond_const("x", "L", CmpOp::Eq, "X")
            .neg_cond_vars("x", "ID", CmpOp::Eq, "a", "ID")
            .within(Duration::ticks(5))
            .build()
            .unwrap()
            .compile(&schema())
            .unwrap();
        let lanes = AdmissionLanes::of(&p);
        assert_eq!(lanes.negation_groups().len(), 1);
        let neg = &lanes.negation_groups()[0];
        assert_eq!(neg.owner, LaneOwner::Negation(0));
        // Only the constant condition contributes a lane; the
        // correlated one is binding-dependent.
        assert_eq!(neg.lanes.len(), 1);
        assert!(lanes.group_holds(neg, &event("X", 9)));
        assert!(!lanes.group_holds(neg, &event("Y", 9)));
    }

    #[test]
    fn float_zero_spellings_merge_nan_does_not() {
        let fschema = Schema::builder()
            .attr("V", AttrType::Float)
            .build()
            .unwrap();
        let p = Pattern::builder()
            .set(|s| s.var("a").var("b"))
            .cond_const("a", "V", CmpOp::Eq, 0.0)
            .cond_const("b", "V", CmpOp::Eq, -0.0)
            .within(Duration::ticks(5))
            .build()
            .unwrap()
            .compile(&fschema)
            .unwrap();
        let lanes = AdmissionLanes::of(&p);
        // -0.0 == 0.0 compare identically under every operator: one lane.
        assert_eq!(lanes.lanes().len(), 1);

        // NaN never equals itself: two NaN constants must not merge
        // (the compiler rejects NaN literals, so check the key directly).
        assert!(!lane_value_eq(
            &Value::from(f64::NAN),
            &Value::from(f64::NAN)
        ));
        // Cross-variant numeric equality is rejected by the key too.
        assert!(!lane_value_eq(&Value::from(3), &Value::from(3.0)));
    }

    #[test]
    fn cross_variant_numeric_constants_stay_distinct() {
        let p = Pattern::builder()
            .set(|s| s.var("a").var("b"))
            .cond_const("a", "ID", CmpOp::Eq, 3)
            .cond_const("b", "ID", CmpOp::Eq, 3.0)
            .within(Duration::ticks(5))
            .build()
            .unwrap()
            .compile(&schema())
            .unwrap();
        let lanes = AdmissionLanes::of(&p);
        assert_eq!(lanes.lanes().len(), 2);
    }
}
