//! Cross-pattern static analysis: equivalence and subsumption over a
//! *set* of patterns — the relations `check --patterns` reports
//! (SES006, SES007).
//!
//! Everything here is **static** (computed before a single event is
//! pushed) and **conservative**: a claimed relation is always sound, a
//! missed relation merely costs a lint hint.
//!
//! # Canonical form
//!
//! Each pattern is normalized into per-`(variable, attribute)`
//! admission facts: the interval [`Domain`] of every constant
//! condition, explicit *plus* the constants derived by [`propagate`].
//! Domains are rendered through [`Domain::to_constraints`], which is
//! canonical for non-poisoned domains, so `v.V > 5 ∧ v.V ≥ 5` and
//! `v.V > 5` produce the same key. Poisoned domains (unorderable bound
//! pairs, e.g. mixed-type comparisons) fall back to the sorted
//! syntactic rendering.
//!
//! Variable conditions are orientation-normalized (`a φ b` and
//! `b φ.flip() a` render identically) and compared as sorted sets —
//! once over the literal `Θ` and once over the §4.4 equality closure
//! ([`equality_closure`]), whose output is candidate-space preserving.
//!
//! # The two relations
//!
//! * **Equivalence** — the sets match position-wise after sorting each
//!   set's variables by semantic key, closed variable conditions match
//!   under that alignment, negations and `τ` match. The equal keys are
//!   themselves the witness isomorphism, so the claim is sound even
//!   though no search is performed; sort ties can only cause missed
//!   equivalences.
//! * **Subsumption** — `A ⊑ B` iff every candidate match of `A`
//!   (a substitution satisfying Definition 1's conditions 1–3),
//!   restricted to the variables of `B` under an injective per-set
//!   embedding `φ : vars(B) → vars(A)`, is a candidate match of `B`.
//!   Certified by finding `φ` (Kuhn's matching over domain-implication
//!   edges per set), checking `B`'s closed variable conditions appear
//!   in `A`'s closure under `φ`, `τ_A ≤ τ_B`, and — when `B` carries
//!   negations — that `φ` is set-bijective (so the guarded gaps
//!   coincide) with every negation of `B` present in `A`.

use std::collections::{BTreeMap, BTreeSet};

use ses_event::{CmpOp, Value};

use crate::condition::Rhs;
use crate::{equality_closure, propagate, Condition, Domain, Negation, Pattern, VarId};

/// Renders a constant with a type tag so `1`, `1.0`, `'1'` and `true`
/// can never collide in a canonical key.
pub(crate) fn value_key(v: &Value) -> String {
    match v {
        Value::Int(i) => format!("i{i}"),
        Value::Float(f) => format!("f{f}"),
        Value::Str(s) => format!("s'{s}'"),
        Value::Bool(b) => format!("b{b}"),
    }
}

/// The admission facts of one `(variable, attribute)` pair.
#[derive(Debug, Clone, Default)]
struct AttrFacts {
    domain: Domain,
    /// Sorted syntactic renderings of the contributing constants —
    /// the fallback key when the domain is poisoned.
    raw: BTreeSet<String>,
}

impl AttrFacts {
    fn add(&mut self, op: CmpOp, v: &Value) {
        self.domain.constrain(op, v);
        self.raw.insert(format!("{} {}", op, value_key(v)));
    }

    /// Canonical key: minimal interval constraints for healthy domains,
    /// a `∅` marker for provably empty ones, the raw syntax otherwise.
    fn key(&self) -> String {
        if self.domain.is_poisoned() {
            let raws: Vec<&str> = self.raw.iter().map(String::as_str).collect();
            format!("?[{}]", raws.join(" & "))
        } else if self.domain.is_empty() {
            "∅".to_string()
        } else {
            let parts: Vec<String> = self
                .domain
                .to_constraints()
                .iter()
                .map(|(op, v)| format!("{} {}", op, value_key(v)))
                .collect();
            parts.join(" & ")
        }
    }

    /// `true` iff every value admitted by `self` provably satisfies all
    /// of `weaker`'s constraints (`self` is at least as strict).
    fn implies_all_of(&self, weaker: &AttrFacts) -> bool {
        if self.domain.is_poisoned() || weaker.domain.is_poisoned() {
            return self.key() == weaker.key();
        }
        if weaker.domain.is_empty() {
            return self.domain.is_empty();
        }
        weaker
            .domain
            .to_constraints()
            .iter()
            .all(|(op, v)| self.domain.implies(*op, v))
    }
}

/// Admission facts of one variable: quantifier plus per-attribute facts.
#[derive(Debug, Clone, Default)]
struct VarFacts {
    group: bool,
    attrs: BTreeMap<String, AttrFacts>,
}

impl VarFacts {
    fn key(&self) -> String {
        let mut s = String::from(if self.group { "+{" } else { "1{" });
        for (attr, f) in &self.attrs {
            s.push_str(attr);
            s.push_str(": ");
            s.push_str(&f.key());
            s.push_str("; ");
        }
        s.push('}');
        s
    }

    /// `true` iff mapping `weaker` (a variable of the subsuming
    /// pattern) onto `self` (a variable of the subsumed one) is sound:
    /// quantifiers embed and `self`'s admission set is contained in
    /// `weaker`'s.
    fn embeds_into(&self, weaker: &VarFacts) -> bool {
        // A group binding projected onto a singleton would bind several
        // events to one variable; the reverse (singleton → group) is a
        // legal one-event group binding.
        if self.group && !weaker.group {
            return false;
        }
        weaker
            .attrs
            .iter()
            .all(|(attr, wf)| match self.attrs.get(attr) {
                Some(sf) => sf.implies_all_of(wf),
                None => false,
            })
    }
}

pub(crate) fn render_var_cond(c: &Condition, pos: &dyn Fn(VarId) -> usize) -> Option<String> {
    let Rhs::Attr(r) = &c.rhs else { return None };
    let l = (pos(c.lhs.var), c.lhs.attr.to_string());
    let rr = (pos(r.var), r.attr.to_string());
    let (l, op, rr) = if l <= rr {
        (l, c.op, rr)
    } else {
        (rr, c.op.flip(), l)
    };
    Some(format!("@{}.{} {} @{}.{}", l.0, l.1, op, rr.0, rr.1))
}

pub(crate) fn render_negation(neg: &Negation, pos: &dyn Fn(VarId) -> usize) -> String {
    let mut conds: Vec<String> = neg
        .conditions()
        .iter()
        .map(|c| {
            let rhs = match &c.rhs {
                Rhs::Const(v) => value_key(v),
                Rhs::Attr(r) => format!("@{}.{}", pos(r.var), r.attr),
            };
            format!(".{} {} {}", c.attr, c.op, rhs)
        })
        .collect();
    conds.sort();
    conds.dedup();
    format!("¬gap{}[{}]", neg.after_set(), conds.join(" & "))
}

/// The canonical form of one pattern, precomputed once per [`relate`]
/// call.
struct Form<'p> {
    pattern: &'p Pattern,
    /// Semantic facts (explicit + derived constants), by `VarId` index.
    sem: Vec<VarFacts>,
    /// Per set: its variables' semantic keys, sorted — the
    /// order-insensitive structural fingerprint.
    canon_set_keys: Vec<String>,
    /// Closure variable conditions rendered at canonical positions.
    canon_cond_keys: BTreeSet<String>,
    /// Negations rendered at canonical positions.
    canon_negs: BTreeSet<String>,
    /// Closure variable conditions rendered at declaration positions.
    closed_cond_keys: BTreeSet<String>,
    /// Non-constant conditions of the literal `Θ`.
    literal_conds: Vec<Condition>,
    /// Negations rendered at declaration positions.
    inorder_negs: BTreeSet<String>,
}

impl<'p> Form<'p> {
    fn build(p: &'p Pattern) -> Form<'p> {
        let n = p.num_vars();
        let mut sem: Vec<VarFacts> = (0..n)
            .map(|i| VarFacts {
                group: p.var(VarId(i as u16)).is_group(),
                attrs: BTreeMap::new(),
            })
            .collect();

        let prop = propagate(p);
        for c in p.conditions().iter().chain(&prop.derived) {
            if let Rhs::Const(v) = &c.rhs {
                sem[c.lhs.var.index()]
                    .attrs
                    .entry(c.lhs.attr.to_string())
                    .or_default()
                    .add(c.op, v);
            }
        }

        let sem_keys: Vec<String> = sem.iter().map(VarFacts::key).collect();

        // Canonical positions: sets in order, each set's variables
        // sorted by semantic key (ties by declaration order).
        let mut canon_pos = vec![0usize; n];
        let mut canon_set_keys = Vec::with_capacity(p.num_sets());
        let mut next = 0usize;
        for i in 0..p.num_sets() {
            let mut order: Vec<VarId> = p.set(i).to_vec();
            order.sort_by(|a, b| {
                sem_keys[a.index()]
                    .cmp(&sem_keys[b.index()])
                    .then_with(|| a.index().cmp(&b.index()))
            });
            let keys: Vec<&str> = order.iter().map(|v| sem_keys[v.index()].as_str()).collect();
            canon_set_keys.push(keys.join(" | "));
            for v in order {
                canon_pos[v.index()] = next;
                next += 1;
            }
        }

        let closed = equality_closure(p);
        let identity = |v: VarId| v.index();
        let canonical = |v: VarId| canon_pos[v.index()];
        let mut canon_cond_keys = BTreeSet::new();
        let mut closed_cond_keys = BTreeSet::new();
        for c in closed.conditions() {
            if let Some(k) = render_var_cond(c, &canonical) {
                canon_cond_keys.insert(k);
            }
            if let Some(k) = render_var_cond(c, &identity) {
                closed_cond_keys.insert(k);
            }
        }
        let literal_conds: Vec<Condition> = p
            .conditions()
            .iter()
            .filter(|c| !c.is_constant())
            .cloned()
            .collect();

        let mut canon_negs = BTreeSet::new();
        let mut inorder_negs = BTreeSet::new();
        for neg in p.negations() {
            canon_negs.insert(render_negation(neg, &canonical));
            inorder_negs.insert(render_negation(neg, &identity));
        }

        Form {
            pattern: p,
            sem,
            canon_set_keys,
            canon_cond_keys,
            canon_negs,
            closed_cond_keys,
            literal_conds,
            inorder_negs,
        }
    }
}

fn equivalent(a: &Form<'_>, b: &Form<'_>) -> bool {
    a.pattern.within() == b.pattern.within()
        && a.canon_set_keys == b.canon_set_keys
        && a.canon_cond_keys == b.canon_cond_keys
        && a.canon_negs == b.canon_negs
}

/// Kuhn's augmenting-path matching: tries to match every `right` node
/// (a variable of the subsuming pattern) to a distinct `left` node
/// (a variable of the subsumed pattern) along `compat` edges.
fn perfect_matching(compat: &[Vec<bool>], lefts: usize) -> Option<Vec<usize>> {
    let rights = compat.len();
    if rights > lefts {
        return None;
    }
    // owner[l] = matched right node, if any.
    let mut owner: Vec<Option<usize>> = vec![None; lefts];
    fn augment(
        r: usize,
        compat: &[Vec<bool>],
        owner: &mut [Option<usize>],
        seen: &mut [bool],
    ) -> bool {
        for l in 0..owner.len() {
            if compat[r][l] && !seen[l] {
                seen[l] = true;
                if owner[l].is_none() || augment(owner[l].unwrap(), compat, owner, seen) {
                    owner[l] = Some(r);
                    return true;
                }
            }
        }
        false
    }
    for r in 0..rights {
        let mut seen = vec![false; lefts];
        if !augment(r, compat, &mut owner, &mut seen) {
            return None;
        }
    }
    let mut assign = vec![usize::MAX; rights];
    for (l, o) in owner.iter().enumerate() {
        if let Some(r) = o {
            assign[*r] = l;
        }
    }
    Some(assign)
}

/// `true` iff every candidate match of `a`, restricted through an
/// embedding of `b`'s variables, is a candidate match of `b`.
fn subsumed_by(a: &Form<'_>, b: &Form<'_>) -> bool {
    let pa = a.pattern;
    let pb = b.pattern;
    if pa.num_sets() != pb.num_sets() || pa.within() > pb.within() {
        return false;
    }
    if pb.has_negations() {
        // The guarded gap of a projected match only coincides with the
        // full match's gap when every adjacent set maps bijectively.
        if (0..pa.num_sets()).any(|i| pa.set(i).len() != pb.set(i).len()) {
            return false;
        }
    }

    // Build the per-set embedding φ : vars(b) → vars(a).
    let mut phi = vec![VarId(0); pb.num_vars()];
    for i in 0..pb.num_sets() {
        let avars = pa.set(i);
        let bvars = pb.set(i);
        let compat: Vec<Vec<bool>> = bvars
            .iter()
            .map(|bv| {
                avars
                    .iter()
                    .map(|av| a.sem[av.index()].embeds_into(&b.sem[bv.index()]))
                    .collect()
            })
            .collect();
        let Some(assign) = perfect_matching(&compat, avars.len()) else {
            return false;
        };
        for (bi, ai) in assign.iter().enumerate() {
            phi[bvars[bi].index()] = avars[*ai];
        }
    }

    // Every closed variable condition of b, mapped through φ, must be
    // entailed (syntactically, over the closure) by a.
    let mapped = |v: VarId| phi[v.index()].index();
    for c in &b.literal_conds {
        // Checking the closure of b would be redundant: it is entailed
        // by the literal conditions, and a's closure is itself closed.
        if let Some(k) = render_var_cond(c, &mapped) {
            if !a.closed_cond_keys.contains(&k) {
                return false;
            }
        }
    }
    for neg in pb.negations() {
        let k = render_negation(neg, &mapped);
        if !a.inorder_negs.contains(&k) {
            return false;
        }
    }
    true
}

/// The conservative pairwise relation between two patterns, strongest
/// first (and ordered so): equivalence, then subsumption (either
/// direction).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd)]
pub enum PatternRelation {
    /// The patterns provably admit the same candidate matches, up to
    /// variable renaming and reordering within event sets.
    Equivalent,
    /// Every candidate match of the first pattern, restricted to the
    /// embedded variables, is a candidate match of the second (the
    /// first is the stricter, redundant one).
    SubsumedBy,
    /// The mirror image: the second pattern is subsumed by the first.
    Subsumes,
    /// No relation could be certified.
    Unrelated,
}

/// Relates two patterns conservatively; see [`PatternRelation`].
pub fn relate(a: &Pattern, b: &Pattern) -> PatternRelation {
    let fa = Form::build(a);
    let fb = Form::build(b);
    if equivalent(&fa, &fb) {
        return PatternRelation::Equivalent;
    }
    if subsumed_by(&fa, &fb) {
        return PatternRelation::SubsumedBy;
    }
    if subsumed_by(&fb, &fa) {
        return PatternRelation::Subsumes;
    }
    PatternRelation::Unrelated
}

#[cfg(test)]
mod tests {
    use super::*;
    use ses_event::Duration;

    fn q(build: impl FnOnce(crate::PatternBuilder) -> crate::PatternBuilder) -> Pattern {
        build(Pattern::builder()).build().unwrap()
    }

    #[test]
    fn equivalence_survives_renaming_and_redundant_constants() {
        let a = q(|b| {
            b.set(|s| s.var("x").var("y"))
                .cond_const("x", "L", CmpOp::Eq, "C")
                .cond_const("y", "V", CmpOp::Gt, 5)
                .cond_const("y", "V", CmpOp::Ge, 5) // redundant
                .within(Duration::hours(10))
        });
        let b = q(|b| {
            b.set(|s| s.var("p").var("q"))
                .cond_const("q", "L", CmpOp::Eq, "C") // set-internal reorder
                .cond_const("p", "V", CmpOp::Gt, 5)
                .within(Duration::hours(10))
        });
        assert_eq!(relate(&a, &b), PatternRelation::Equivalent);
    }

    #[test]
    fn set_order_and_tau_matter() {
        let a = q(|b| {
            b.set(|s| s.var("x"))
                .set(|s| s.var("y"))
                .cond_const("x", "L", CmpOp::Eq, "A")
                .cond_const("y", "L", CmpOp::Eq, "B")
                .within(Duration::hours(10))
        });
        let swapped = q(|b| {
            b.set(|s| s.var("x"))
                .set(|s| s.var("y"))
                .cond_const("x", "L", CmpOp::Eq, "B")
                .cond_const("y", "L", CmpOp::Eq, "A")
                .within(Duration::hours(10))
        });
        assert_ne!(relate(&a, &swapped), PatternRelation::Equivalent);
        let widened = q(|b| {
            b.set(|s| s.var("x"))
                .set(|s| s.var("y"))
                .cond_const("x", "L", CmpOp::Eq, "A")
                .cond_const("y", "L", CmpOp::Eq, "B")
                .within(Duration::hours(20))
        });
        // Same shape, wider window: subsumed, not equivalent.
        assert_eq!(relate(&a, &widened), PatternRelation::SubsumedBy);
    }

    #[test]
    fn extra_conditions_mean_subsumption() {
        let strict = q(|b| {
            b.set(|s| s.var("a"))
                .set(|s| s.var("b"))
                .cond_const("a", "L", CmpOp::Eq, "C")
                .cond_const("b", "L", CmpOp::Eq, "B")
                .cond_vars("a", "ID", CmpOp::Eq, "b", "ID")
                .within(Duration::hours(10))
        });
        let loose = q(|b| {
            b.set(|s| s.var("a"))
                .set(|s| s.var("b"))
                .cond_const("a", "L", CmpOp::Eq, "C")
                .cond_const("b", "L", CmpOp::Eq, "B")
                .within(Duration::hours(10))
        });
        assert_eq!(relate(&strict, &loose), PatternRelation::SubsumedBy);
        assert_eq!(relate(&loose, &strict), PatternRelation::Subsumes);
    }

    #[test]
    fn tighter_domain_means_subsumption() {
        let strict = q(|b| {
            b.set(|s| s.var("a"))
                .cond_const("a", "V", CmpOp::Gt, 10)
                .within(Duration::hours(5))
        });
        let loose = q(|b| {
            b.set(|s| s.var("a"))
                .cond_const("a", "V", CmpOp::Gt, 5)
                .within(Duration::hours(5))
        });
        assert_eq!(relate(&strict, &loose), PatternRelation::SubsumedBy);
    }

    #[test]
    fn extra_variable_in_subsumed_set_embeds() {
        let strict = q(|b| {
            b.set(|s| s.var("a").var("x"))
                .set(|s| s.var("b"))
                .cond_const("a", "L", CmpOp::Eq, "C")
                .cond_const("x", "L", CmpOp::Eq, "P")
                .cond_const("b", "L", CmpOp::Eq, "B")
                .within(Duration::hours(10))
        });
        let loose = q(|b| {
            b.set(|s| s.var("a"))
                .set(|s| s.var("b"))
                .cond_const("a", "L", CmpOp::Eq, "C")
                .cond_const("b", "L", CmpOp::Eq, "B")
                .within(Duration::hours(10))
        });
        assert_eq!(relate(&strict, &loose), PatternRelation::SubsumedBy);
    }

    #[test]
    fn negations_block_subsumption_unless_mirrored() {
        let with_neg = Pattern::builder()
            .set(|s| s.var("a"))
            .negate("x")
            .neg_cond_const("x", "L", CmpOp::Eq, "X")
            .set(|s| s.var("b"))
            .cond_const("a", "L", CmpOp::Eq, "C")
            .cond_const("b", "L", CmpOp::Eq, "B")
            .within(Duration::hours(10))
            .build()
            .unwrap();
        let strict = q(|b| {
            b.set(|s| s.var("a"))
                .set(|s| s.var("b"))
                .cond_const("a", "L", CmpOp::Eq, "C")
                .cond_const("b", "L", CmpOp::Eq, "B")
                .cond_vars("a", "ID", CmpOp::Eq, "b", "ID")
                .within(Duration::hours(10))
        });
        // strict has no negation, so its matches may contain gap events
        // with_neg forbids: no subsumption either way.
        assert_eq!(relate(&strict, &with_neg), PatternRelation::Unrelated);

        let strict_neg = Pattern::builder()
            .set(|s| s.var("a"))
            .negate("y")
            .neg_cond_const("y", "L", CmpOp::Eq, "X")
            .set(|s| s.var("b"))
            .cond_const("a", "L", CmpOp::Eq, "C")
            .cond_const("b", "L", CmpOp::Eq, "B")
            .cond_vars("a", "ID", CmpOp::Eq, "b", "ID")
            .within(Duration::hours(10))
            .build()
            .unwrap();
        assert_eq!(relate(&strict_neg, &with_neg), PatternRelation::SubsumedBy);
    }

    #[test]
    fn mixed_type_constants_fall_back_syntactically() {
        // `a.V > 1 ∧ a.V < 'x'` poisons the interval domain; equality
        // must then rely on the syntactic rendering.
        let mk = || {
            q(|b| {
                b.set(|s| s.var("a"))
                    .cond_const("a", "V", CmpOp::Gt, 1)
                    .cond_const("a", "V", CmpOp::Lt, "x")
                    .within(Duration::hours(5))
            })
        };
        let p1 = mk();
        let p2 = mk();
        assert_eq!(relate(&p1, &p2), PatternRelation::Equivalent);
        let p3 = q(|b| {
            b.set(|s| s.var("a"))
                .cond_const("a", "V", CmpOp::Gt, 2)
                .cond_const("a", "V", CmpOp::Lt, "x")
                .within(Duration::hours(5))
        });
        assert_ne!(relate(&p1, &p3), PatternRelation::Equivalent);
    }
}
