//! SES automaton construction (paper §4.1–4.2).
//!
//! The construction is the paper's two-step process fused into one pass:
//!
//! 1. **Translation of a single event set pattern** (§4.2.1): for `Vi`, a
//!    state per subset of `Vi`, a transition per `(state, unbound
//!    variable)` pair, and a loop transition per `(state, contained group
//!    variable)` pair.
//! 2. **Concatenation** (§4.2.2): the accepting state of `Ni` is merged
//!    with the start state of `Ni+1` by prefixing all of `Ni+1`'s states
//!    with `V1 ∪ … ∪ Vi`; the transitions leaving the merged state gain
//!    the time constraints `v'.T < v.T` for every earlier variable `v'`.
//!
//! A transition's condition set `Θδ` holds exactly the conditions of `Θ`
//! that constrain the newly bound variable against constants, against
//! variables already available in the source state, against itself, plus
//! the concatenation time constraints — Definition 3's construction rule.

use std::collections::HashMap;

use ses_event::Duration;
use ses_pattern::{CompiledPattern, VarId};

use crate::symmetry::Symmetry;
use crate::{CoreError, StateId, StateSet};

/// The state budget: the most states (`Σi 2^|Vi|`) the paper's automaton
/// of a pattern may have before [`Automaton::build`] and
/// [`Automaton::build_paper`] refuse it with [`CoreError::TooManyStates`].
pub const DEFAULT_MAX_STATES: usize = 1 << 20;

/// One conjunct of a transition's condition set `Θδ`, compiled relative to
/// the variable the transition binds ("the new event").
#[derive(Debug, Clone, PartialEq)]
pub enum TransCond {
    /// A constant condition `v.A φ C` on the new event; `cond` indexes
    /// [`CompiledPattern::conditions`].
    Const {
        /// Condition index in the compiled pattern.
        cond: usize,
    },
    /// A variable condition between the new event and every event already
    /// bound to `other` (the decomposition semantics of §3.2 require every
    /// combination to hold; combinations not involving the new binding
    /// were checked when their own bindings were added).
    VsBound {
        /// Condition index in the compiled pattern.
        cond: usize,
        /// The already-bound variable on the other side.
        other: VarId,
        /// `true` when the new variable is the condition's left-hand side.
        new_is_lhs: bool,
    },
    /// A self-condition `v.A φ v.A'`: under decomposition both occurrences
    /// instantiate to the same event, so it is checked on the new event
    /// alone.
    SelfCmp {
        /// Condition index in the compiled pattern.
        cond: usize,
    },
    /// Concatenation time constraint `other.T < new.T` (strictly before).
    TimeAfter {
        /// The earlier-set variable.
        other: VarId,
    },
}

/// A transition `δ = (q, v, Θδ)` to target `q ∪ {v}`.
#[derive(Debug, Clone)]
pub struct Transition {
    /// Source state.
    pub source: StateId,
    /// Target state (`source` itself for loop transitions).
    pub target: StateId,
    /// The variable the transition binds.
    pub var: VarId,
    /// `true` for a group-variable loop (`q ∪ {v+} = q`).
    pub is_loop: bool,
    /// The compiled condition set `Θδ`.
    pub conds: Vec<TransCond>,
}

/// A state of the automaton.
#[derive(Debug, Clone)]
pub struct State {
    /// The variable set `q ⊆ V` labelling this state.
    pub set: StateSet,
    /// Index of the event set pattern whose lattice this state belongs to
    /// (boundary states belong to the *earlier* set's lattice).
    pub set_index: usize,
}

/// A compiled SES automaton `N = (Q, Δ, qs, qf, τ)` (Definition 3).
#[derive(Debug, Clone)]
pub struct Automaton {
    pattern: CompiledPattern,
    /// `true` when built by [`Automaton::build`] for a pattern with
    /// interchangeable classes: quotiented by them.
    quotient: bool,
    states: Vec<State>,
    by_set: HashMap<u64, StateId>,
    transitions: Vec<Transition>,
    /// `outgoing[q]` is the index range into `transitions` of the
    /// transitions leaving state `q` (transitions are generated grouped by
    /// source).
    outgoing: Vec<std::ops::Range<u32>>,
    /// `outgoing_var_mask[q]` ORs `var.bit()` over the transitions
    /// leaving `q`: when the per-event admission mask shares no bit with
    /// it, no transition can fire and the whole loop is skipped.
    outgoing_var_mask: Vec<u64>,
    start: StateId,
    accept: StateId,
    tau: Duration,
}

impl Automaton {
    /// Builds the automaton for a compiled pattern, quotiented by its
    /// interchangeable classes ([`CompiledPattern::interchangeable_classes`]),
    /// within the [`DEFAULT_MAX_STATES`] budget.
    ///
    /// Within a class the members bind in event order: a member's binding
    /// transition exists only from the states where every earlier member
    /// (by [`VarId`]) is bound, so a class of `k` has `k + 1` reachable
    /// states instead of `2^k`, and of the `k!` runs the paper's automaton
    /// takes for one answer this one takes the one whose members bind in
    /// ascending order. [`crate::select`] and the streaming matcher expand
    /// each surviving match into its `k!` images; a pattern without classes
    /// gets exactly [`Automaton::build_paper`]'s automaton.
    pub fn build(pattern: CompiledPattern) -> Result<Automaton, CoreError> {
        let symmetry = Symmetry::of(&pattern);
        Automaton::construct(pattern, &symmetry)
    }

    /// Builds the paper's automaton (§4.2) for a compiled pattern: a state
    /// per subset of each `Vi`, whatever the pattern's symmetry. The
    /// reproduction of the paper's experiments and Theorem 2 measure this
    /// one; every matcher runs [`Automaton::build`].
    pub fn build_paper(pattern: CompiledPattern) -> Result<Automaton, CoreError> {
        let symmetry = Symmetry::none(pattern.pattern().num_vars());
        Automaton::construct(pattern, &symmetry)
    }

    /// The construction shared by both constructors: the paper's, minus
    /// the states and transitions that bind a class member before an
    /// earlier one.
    fn construct(pattern: CompiledPattern, symmetry: &Symmetry) -> Result<Automaton, CoreError> {
        let p = pattern.pattern();

        // State budget: the paper's Σi 2^|Vi| minus shared boundaries,
        // for the quotient too. It has fewer states, but each of its
        // matches stands for ∏ kᵢ! images, so a pattern the paper's
        // automaton cannot afford is refused by both constructors.
        let mut required = 1usize; // the start state
        for set in p.sets() {
            let grow = (1usize << set.len()) - 1;
            required = required.saturating_add(grow);
            if required > DEFAULT_MAX_STATES {
                return Err(CoreError::TooManyStates {
                    required,
                    limit: DEFAULT_MAX_STATES,
                });
            }
        }

        let mut states: Vec<State> = Vec::with_capacity(required);
        let mut by_set: HashMap<u64, StateId> = HashMap::with_capacity(required);
        let mut transitions: Vec<Transition> = Vec::new();

        let mut intern = |set: StateSet, set_index: usize, states: &mut Vec<State>| -> StateId {
            *by_set.entry(set.bits()).or_insert_with(|| {
                let id = StateId(states.len() as u32);
                states.push(State { set, set_index });
                id
            })
        };

        // Pass 1: intern every state. For set i with prefix P = V1∪…∪Vi−1,
        // the states are { P ∪ s | s ∈ lattice(Vi) }. The boundary
        // state P (s = ∅) is the merged accept-of-Ni−1 / start-of-Ni and is
        // interned by the earlier set first, keeping its `set_index` at the
        // earlier set.
        let mut prefix = StateSet::EMPTY;
        let start = intern(prefix, 0, &mut states);
        for (i, set) in p.sets().iter().enumerate() {
            let set_mask = set.iter().fold(StateSet::EMPTY, |acc, v| acc.with(*v));
            for sub in lattice(set_mask, symmetry.classes()) {
                intern(prefix.union(sub), i, &mut states);
            }
            prefix = prefix.union(set_mask);
        }
        // Release the interning closure's mutable borrow of `by_set`.
        #[allow(clippy::drop_non_drop)]
        drop(intern);
        let accept = by_set[&prefix.bits()];

        // Pass 2: transitions, grouped by source state id.
        let num_states = states.len();
        let mut per_source: Vec<Vec<Transition>> = vec![Vec::new(); num_states];
        let mut prefix = StateSet::EMPTY;
        for set in p.sets() {
            let set_mask = set.iter().fold(StateSet::EMPTY, |acc, v| acc.with(*v));
            for sub in lattice(set_mask, symmetry.classes()) {
                let q_set = prefix.union(sub);
                let q = by_set[&q_set.bits()];
                // Binding transitions for each unbound variable of Vi.
                for &v in set {
                    if sub.contains(v) || !symmetry.may_bind(sub, v) {
                        continue;
                    }
                    let target = by_set[&q_set.with(v).bits()];
                    let conds = compile_conditions(
                        &pattern,
                        v,
                        q_set,
                        /*boundary=*/ sub.is_empty(),
                        prefix,
                    );
                    per_source[q.index()].push(Transition {
                        source: q,
                        target,
                        var: v,
                        is_loop: false,
                        conds,
                    });
                }
                // Loop transitions for each contained group variable of Vi.
                for &v in set {
                    if !sub.contains(v) || !p.var(v).is_group() {
                        continue;
                    }
                    // A loop re-binds v at a state where v is already
                    // available; `sub` is never empty here, so no boundary
                    // time constraints apply (they were enforced when the
                    // first variable of the set was bound).
                    let conds = compile_conditions(&pattern, v, q_set, false, prefix);
                    per_source[q.index()].push(Transition {
                        source: q,
                        target: q,
                        var: v,
                        is_loop: true,
                        conds,
                    });
                }
            }
            prefix = prefix.union(set_mask);
        }

        let mut outgoing = Vec::with_capacity(num_states);
        let mut outgoing_var_mask = Vec::with_capacity(num_states);
        for ts in per_source {
            let begin = transitions.len() as u32;
            outgoing_var_mask.push(ts.iter().fold(0u64, |m, t| m | t.var.bit()));
            transitions.extend(ts);
            outgoing.push(begin..transitions.len() as u32);
        }

        let tau = p.within();
        Ok(Automaton {
            pattern,
            quotient: !symmetry.is_trivial(),
            states,
            by_set,
            transitions,
            outgoing,
            outgoing_var_mask,
            start,
            accept,
            tau,
        })
    }

    /// The compiled pattern this automaton implements.
    pub fn pattern(&self) -> &CompiledPattern {
        &self.pattern
    }

    /// The interchangeable classes whose members bind in ascending order
    /// here — empty for the paper's automaton and for a pattern without
    /// classes. Each accepted run stands for the images of its bindings
    /// under every permutation of every class.
    pub fn interchangeable_classes(&self) -> &[Vec<VarId>] {
        if self.quotient {
            self.pattern.interchangeable_classes()
        } else {
            &[]
        }
    }

    /// All states; indexable by [`StateId`].
    pub fn states(&self) -> &[State] {
        &self.states
    }

    /// The state labelled with variable set `set`, if it exists.
    pub fn state_for(&self, set: StateSet) -> Option<StateId> {
        self.by_set.get(&set.bits()).copied()
    }

    /// All transitions.
    pub fn transitions(&self) -> &[Transition] {
        &self.transitions
    }

    /// The transitions leaving state `q`.
    pub fn outgoing(&self, q: StateId) -> &[Transition] {
        let r = &self.outgoing[q.index()];
        &self.transitions[r.start as usize..r.end as usize]
    }

    /// OR of `var.bit()` over the transitions leaving `q`. An event
    /// whose variable-admission mask is disjoint from it cannot fire
    /// any transition from `q`.
    pub fn outgoing_var_mask(&self, q: StateId) -> u64 {
        self.outgoing_var_mask[q.index()]
    }

    /// The start state `qs = ∅`.
    pub fn start(&self) -> StateId {
        self.start
    }

    /// The accepting state `qf = V`.
    pub fn accept(&self) -> StateId {
        self.accept
    }

    /// The window `τ`.
    pub fn tau(&self) -> Duration {
        self.tau
    }

    /// Number of states `|Q|`.
    pub fn num_states(&self) -> usize {
        self.states.len()
    }

    /// Number of transitions `|Δ|`.
    pub fn num_transitions(&self) -> usize {
        self.transitions.len()
    }

    /// Human-readable label of a state, using the pattern's variable names
    /// concatenated as in the paper's figures (e.g. `cdp+`).
    pub fn state_label(&self, q: StateId) -> String {
        let set = self.states[q.index()].set;
        if set.is_empty() {
            return "∅".to_string();
        }
        let p = self.pattern.pattern();
        set.iter()
            .map(|v| p.var_name(v))
            .collect::<Vec<_>>()
            .join("")
    }
}

/// The subsets of the set `set` that label states: every subset of its
/// variables outside `classes` joined with one prefix of each class it
/// holds. Without a class that is every subset, in ascending bitmask
/// order — the paper's lattice, state ids and all.
fn lattice(set: StateSet, classes: &[Vec<VarId>]) -> Vec<StateSet> {
    let own: Vec<&Vec<VarId>> = classes.iter().filter(|c| set.contains(c[0])).collect();
    let free = set
        .iter()
        .filter(|v| !own.iter().any(|c| c.contains(v)))
        .fold(StateSet::EMPTY, StateSet::with);
    let mut subs: Vec<StateSet> = free.subsets().collect();
    for class in own {
        let prefixes: Vec<StateSet> = (0..=class.len())
            .map(|i| class[..i].iter().fold(StateSet::EMPTY, |q, &v| q.with(v)))
            .collect();
        subs = subs
            .iter()
            .flat_map(|&s| prefixes.iter().map(move |&p| s.union(p)))
            .collect();
    }
    subs
}

/// Definition 3's transition-condition rule: collect every condition that
/// constrains `v` against a constant, against itself, or against a variable
/// in `V1 ∪ … ∪ Vi−1 ∪ q` — plus, on the first transition out of a merged
/// boundary state, the concatenation time constraints against every
/// earlier-set variable.
fn compile_conditions(
    pattern: &CompiledPattern,
    v: VarId,
    q: StateSet,
    boundary: bool,
    prefix: StateSet,
) -> Vec<TransCond> {
    let mut conds = Vec::new();
    // Constant conditions first: they are the cheapest to evaluate and
    // reject most events.
    for &i in pattern.const_conditions_of(v) {
        conds.push(TransCond::Const { cond: i });
    }
    for (i, c) in pattern.conditions().iter().enumerate() {
        let Some(other) = c.other_var() else { continue };
        let lhs = c.lhs_var;
        if lhs == v && other == v {
            conds.push(TransCond::SelfCmp { cond: i });
        } else if lhs == v && (q.contains(other) || other == v) {
            conds.push(TransCond::VsBound {
                cond: i,
                other,
                new_is_lhs: true,
            });
        } else if other == v && q.contains(lhs) {
            conds.push(TransCond::VsBound {
                cond: i,
                other: lhs,
                new_is_lhs: false,
            });
        }
    }
    if boundary {
        for other in prefix.iter() {
            conds.push(TransCond::TimeAfter { other });
        }
    }
    conds
}

#[cfg(test)]
mod tests {
    use super::*;
    use ses_event::{AttrType, CmpOp, Duration, Schema};
    use ses_pattern::Pattern;

    fn schema() -> Schema {
        Schema::builder()
            .attr("ID", AttrType::Int)
            .attr("L", AttrType::Str)
            .build()
            .unwrap()
    }

    /// The paper's Query Q1 pattern: ⟨{c, p+, d}, {b}⟩.
    fn q1() -> Automaton {
        let p = Pattern::builder()
            .set(|s| s.var("c").plus("p").var("d"))
            .set(|s| s.var("b"))
            .cond_const("c", "L", CmpOp::Eq, "C")
            .cond_const("d", "L", CmpOp::Eq, "D")
            .cond_const("p", "L", CmpOp::Eq, "P")
            .cond_const("b", "L", CmpOp::Eq, "B")
            .cond_vars("c", "ID", CmpOp::Eq, "p", "ID")
            .cond_vars("c", "ID", CmpOp::Eq, "d", "ID")
            .cond_vars("d", "ID", CmpOp::Eq, "b", "ID")
            .within(Duration::hours(264))
            .build()
            .unwrap();
        Automaton::build(p.compile(&schema()).unwrap()).unwrap()
    }

    #[test]
    fn q1_has_the_papers_nine_states() {
        // Figure 5: ∅, c, d, p, cd, cp, dp, cdp, cdpb.
        let a = q1();
        assert_eq!(a.num_states(), 9);
        assert_eq!(a.state_label(a.start()), "∅");
        assert_eq!(a.state_label(a.accept()), "cp+db");
    }

    #[test]
    fn q1_transition_census_matches_figure_5() {
        let a = q1();
        // Figure 5 transitions: 12 binding within V1 (3 from ∅, 2+2+2 from
        // singletons, 1+1+1 into cdp), 4 p+ loops (at p, cp, dp, cdp),
        // 1 b transition = 17.
        assert_eq!(a.num_transitions(), 17);
        let loops = a.transitions().iter().filter(|t| t.is_loop).count();
        assert_eq!(loops, 4);
        // Loops only at states containing p (VarId 1).
        for t in a.transitions().iter().filter(|t| t.is_loop) {
            assert!(a.states()[t.source.index()]
                .set
                .contains(ses_pattern::VarId(1)));
            assert_eq!(t.source, t.target);
        }
    }

    #[test]
    fn start_has_no_incoming_accept_no_outgoing_nonloop() {
        let a = q1();
        assert!(a.transitions().iter().all(|t| t.target != a.start()));
        // Accept state cdpb: no outgoing at all (b is a singleton).
        assert!(a.outgoing(a.accept()).is_empty());
    }

    #[test]
    fn boundary_transitions_carry_time_constraints() {
        let a = q1();
        // The b transition leaves the merged state {c,p,d} and must carry
        // TimeAfter constraints against all three V1 variables (Θ'17).
        let b = ses_pattern::VarId(3);
        let b_trans: Vec<_> = a.transitions().iter().filter(|t| t.var == b).collect();
        assert_eq!(b_trans.len(), 1);
        let time_conds: Vec<_> = b_trans[0]
            .conds
            .iter()
            .filter(|c| matches!(c, TransCond::TimeAfter { .. }))
            .collect();
        assert_eq!(time_conds.len(), 3);
        // And the d.ID = b.ID condition is attached here (d is in q).
        assert!(b_trans[0].conds.iter().any(
            |c| matches!(c, TransCond::VsBound { other, .. } if *other == ses_pattern::VarId(2))
        ));
    }

    #[test]
    fn first_set_transitions_have_no_time_constraints() {
        let a = q1();
        for t in a.transitions() {
            if a.pattern().pattern().var(t.var).set_index() == 0 {
                assert!(
                    !t.conds
                        .iter()
                        .any(|c| matches!(c, TransCond::TimeAfter { .. })),
                    "V1 transition must not carry time constraints"
                );
            }
        }
    }

    #[test]
    fn var_var_condition_attaches_when_other_is_available() {
        let a = q1();
        let c = ses_pattern::VarId(0);
        let p = ses_pattern::VarId(1);
        // From ∅, binding c: only the constant condition (p, d unbound).
        let from_empty: Vec<_> = a
            .outgoing(a.start())
            .iter()
            .filter(|t| t.var == c)
            .collect();
        assert_eq!(from_empty.len(), 1);
        assert!(from_empty[0]
            .conds
            .iter()
            .all(|tc| matches!(tc, TransCond::Const { .. })));
        // From {p}, binding c: constant + c.ID = p.ID (paper's Θ8).
        let p_state = a.state_for(StateSet::singleton(p)).unwrap();
        let from_p: Vec<_> = a.outgoing(p_state).iter().filter(|t| t.var == c).collect();
        assert_eq!(from_p.len(), 1);
        assert!(from_p[0].conds.iter().any(
            |tc| matches!(tc, TransCond::VsBound { other, new_is_lhs: true, .. } if *other == p)
        ));
    }

    #[test]
    fn loop_transitions_recheck_group_conditions() {
        let a = q1();
        let p = ses_pattern::VarId(1);
        let c = ses_pattern::VarId(0);
        // Loop at {c,p}: must include p.L='P' and c.ID=p.ID (paper's Θ13).
        let cp = a.state_for(StateSet::singleton(c).with(p)).unwrap();
        let lp: Vec<_> = a.outgoing(cp).iter().filter(|t| t.is_loop).collect();
        assert_eq!(lp.len(), 1);
        assert!(lp[0]
            .conds
            .iter()
            .any(|tc| matches!(tc, TransCond::Const { .. })));
        assert!(lp[0].conds.iter().any(
            |tc| matches!(tc, TransCond::VsBound { other, new_is_lhs: false, .. } if *other == c)
        ));
        // Loop at {p} alone: only the constant condition (paper's Θ7).
        let p_state = a.state_for(StateSet::singleton(p)).unwrap();
        let lp: Vec<_> = a.outgoing(p_state).iter().filter(|t| t.is_loop).collect();
        assert_eq!(lp.len(), 1);
        assert!(lp[0]
            .conds
            .iter()
            .all(|tc| matches!(tc, TransCond::Const { .. })));
    }

    #[test]
    fn single_set_singleton_pattern_is_two_states() {
        // Figure 3: P = (⟨{b}⟩, {b.L='B'}, 264).
        let p = Pattern::builder()
            .set(|s| s.var("b"))
            .cond_const("b", "L", CmpOp::Eq, "B")
            .within(Duration::hours(264))
            .build()
            .unwrap();
        let a = Automaton::build(p.compile(&schema()).unwrap()).unwrap();
        assert_eq!(a.num_states(), 2);
        assert_eq!(a.num_transitions(), 1);
        assert_eq!(a.tau(), Duration::hours(264));
        assert_ne!(a.start(), a.accept());
    }

    #[test]
    fn state_budget_is_enforced() {
        let mut b = Pattern::builder();
        b = b.set(|s| {
            for i in 0..25 {
                s.var(format!("v{i}"));
            }
            s
        });
        let p = b.build().unwrap();
        let cp = p.compile(&schema()).unwrap();
        // The 25 variables are one interchangeable class: the quotient
        // would have 26 states, but each match would stand for 25!
        // images, so the budget is the paper's 2^25 for both.
        assert_eq!(cp.interchangeable_classes().len(), 1);
        let err = Automaton::build_paper(cp.clone()).unwrap_err();
        assert!(matches!(err, CoreError::TooManyStates { .. }));
        let err = Automaton::build(cp).unwrap_err();
        assert!(matches!(err, CoreError::TooManyStates { .. }));
    }

    #[test]
    fn three_set_concatenation_chains_boundaries() {
        let p = Pattern::builder()
            .set(|s| s.var("a"))
            .set(|s| s.var("b"))
            .set(|s| s.var("c"))
            .build()
            .unwrap();
        let a = Automaton::build(p.compile(&schema()).unwrap()).unwrap();
        // States: ∅, a, ab, abc.
        assert_eq!(a.num_states(), 4);
        assert_eq!(a.num_transitions(), 3);
        // b's transition gets 1 TimeAfter (vs a); c's gets 2 (vs a, b).
        let count_time = |name: &str| {
            let v = a.pattern().pattern().var_id(name).unwrap();
            a.transitions()
                .iter()
                .find(|t| t.var == v)
                .unwrap()
                .conds
                .iter()
                .filter(|c| matches!(c, TransCond::TimeAfter { .. }))
                .count()
        };
        assert_eq!(count_time("a"), 0);
        assert_eq!(count_time("b"), 1);
        assert_eq!(count_time("c"), 2);
    }

    #[test]
    fn exp1_pattern_sizes() {
        // Paper experiment 1: |V1| from 2 to 6 → 2^|V1| + 1 states.
        for n in 2..=6usize {
            let names = ["c", "d", "p", "v", "r", "l"];
            let mut b = Pattern::builder();
            b = b.set(|s| {
                for name in &names[..n] {
                    s.var(*name);
                }
                s
            });
            b = b.set(|s| s.var("b"));
            let p = b.build().unwrap();
            let a = Automaton::build_paper(p.compile(&schema()).unwrap()).unwrap();
            assert_eq!(a.num_states(), (1 << n) + 1);
            // Binding transitions: n · 2^(n−1) within V1 plus 1 for b.
            assert_eq!(a.num_transitions(), n * (1 << (n - 1)) + 1);
            // The V1 variables are interchangeable (no condition tells
            // them apart): the quotient binds them in one order, a chain
            // of n + 1 states and n transitions, then b.
            let q = Automaton::build(p.compile(&schema()).unwrap()).unwrap();
            assert_eq!(q.interchangeable_classes().len(), 1);
            assert_eq!((q.num_states(), q.num_transitions()), (n + 2, n + 1));
        }
    }

    #[test]
    fn quotient_binds_class_members_in_order_beside_the_group() {
        // exp2_p3's shape: c, d interchangeable, p+ not.
        let p = Pattern::builder()
            .set(|s| s.var("c").var("d").plus("p"))
            .set(|s| s.var("b"))
            .cond_const("c", "L", CmpOp::Eq, "V")
            .cond_const("d", "L", CmpOp::Eq, "V")
            .cond_const("p", "L", CmpOp::Eq, "V")
            .cond_const("b", "L", CmpOp::Eq, "B")
            .within(Duration::hours(264))
            .build()
            .unwrap();
        let cp = p.compile(&schema()).unwrap();
        let paper = Automaton::build_paper(cp.clone()).unwrap();
        let a = Automaton::build(cp).unwrap();
        assert!(paper.interchangeable_classes().is_empty());
        // Paper: 2^3 + 1 states. Quotient: {∅, c, cd} × {without p, with
        // p} + 1.
        assert_eq!((paper.num_states(), a.num_states()), (9, 7));
        let (c, d) = (VarId(0), VarId(1));
        for t in a.transitions() {
            let source = a.states()[t.source.index()].set;
            assert!(t.var != d || source.contains(c), "d bound before c");
            assert!(!source.contains(d) || source.contains(c));
        }
        // The boundary, the accept state and their labels are the paper's.
        assert_eq!(a.state_label(a.accept()), "cdp+b");
        assert!(a.state_for(StateSet::singleton(d)).is_none());
    }
}
