//! Reference (naive) semantics: a from-scratch validator, enumerator and
//! selection filter for matching substitutions. Nothing here runs in
//! production; the differential suites compare the engine against it.
//!
//! * [`satisfies_conditions_1_3`] checks a substitution directly against
//!   conditions 1–3 of Definition 2 — full condition decomposition, set
//!   order, window — without any automaton machinery.
//! * [`enumerate_candidates`] brute-forces the substitution space `Γ` of
//!   small inputs so property tests can cross-validate the engine.
//! * [`select_pairwise`] applies conditions 4–5 and maximality as the
//!   one-shot global filter, every quantifier re-derived from scratch per
//!   candidate — the answer the group-wise sweep of the `semantics`
//!   module must reproduce.
//! * [`algorithm1`] runs the automaton as the paper's Algorithm 1 is
//!   written — no admission mask, no node log — over whichever events it
//!   is given; with [`paper_filter`] in front of it, it is the §4.5
//!   ablation of Experiment 3.

use ses_event::{Event, EventId, Relation, Timestamp};
use ses_pattern::{CompiledPattern, CompiledRhs, VarId};

use crate::automaton::{Automaton, TransCond};
use crate::engine::RawMatch;
use crate::matches::Match;
use crate::semantics::MatchSemantics;
use crate::state::StateId;

/// The paper's §4.5 filter, applied to events "immediately after they are
/// read": `true` iff `event` satisfies at least one constant condition
/// of `Θ`. It is only sound when every variable has a constant
/// condition, so otherwise it keeps every event.
pub fn paper_filter(pattern: &CompiledPattern, event: &Event) -> bool {
    !pattern.every_var_constrained() || pattern.satisfies_any_constant(event)
}

/// The paper's Algorithm 1 (`SESExec`) with Algorithm 2
/// (`ConsumeEvent`) under skip-till-next-match, as written: every event
/// of `events` (ascending) spawns a fresh instance `(qs, ∅)`, expires
/// the instances whose window it leaves, and is offered to every
/// remaining instance, whose every outgoing transition evaluates all of
/// its conditions — constant ones included. Instances still accepting at
/// the end are flushed, as [`crate::Execution::finish`] does.
///
/// Returns the raw matches; the engine's [`crate::execute`] must return
/// the same set. Feeding it the events [`paper_filter`] keeps must not
/// change that set either.
pub fn algorithm1(
    automaton: &Automaton,
    relation: &Relation,
    events: impl IntoIterator<Item = EventId>,
) -> Vec<RawMatch> {
    let pattern = automaton.pattern();
    let (start, accept, tau) = (automaton.start(), automaton.accept(), automaton.tau());
    let raw = |bindings: &[(VarId, EventId)]| {
        let mut bindings = bindings.to_vec();
        bindings.sort_unstable_by_key(|&(v, e)| (e, v));
        RawMatch { bindings }
    };
    // Ω: each instance's state and its bindings in binding order.
    let mut omega: Vec<(StateId, Vec<(VarId, EventId)>)> = Vec::new();
    let mut out = Vec::new();
    for id in events {
        let event = relation.event(id);
        omega.push((start, Vec::new()));
        omega.retain(|(state, bindings)| {
            let expired = bindings
                .first()
                .is_some_and(|&(_, first)| event.ts().distance(relation.event(first).ts()) > tau);
            if expired && *state == accept {
                out.push(raw(bindings));
            }
            !expired
        });
        let mut next = Vec::with_capacity(omega.len());
        for (state, bindings) in omega {
            let bound = |v: VarId| {
                bindings
                    .iter()
                    .filter(move |&&(w, _)| w == v)
                    .map(|&(_, e)| relation.event(e))
            };
            let mut fired = false;
            for transition in automaton.outgoing(state) {
                let holds = transition.conds.iter().all(|tc| match *tc {
                    TransCond::Const { cond } => pattern.condition(cond).eval_const(event),
                    TransCond::SelfCmp { cond } => pattern.condition(cond).eval_vars(event, event),
                    TransCond::VsBound {
                        cond,
                        other,
                        new_is_lhs,
                    } => bound(other).all(|o| {
                        let c = pattern.condition(cond);
                        if new_is_lhs {
                            c.eval_vars(event, o)
                        } else {
                            c.eval_vars(o, event)
                        }
                    }),
                    TransCond::TimeAfter { other } => bound(other).all(|o| o.ts() < event.ts()),
                });
                if holds {
                    fired = true;
                    let mut successor = bindings.clone();
                    successor.push((transition.var, id));
                    next.push((transition.target, successor));
                }
            }
            if !fired && state != start {
                next.push((state, bindings));
            }
        }
        omega = next;
    }
    out.extend(
        omega
            .iter()
            .filter(|(state, _)| *state == accept)
            .map(|(_, bindings)| raw(bindings)),
    );
    out
}

/// Checks conditions 1–3 of Definition 2 for a complete substitution.
///
/// `bindings` must be sorted by `(event, var)` (the canonical match
/// order); each singleton variable must be bound exactly once, each group
/// variable at least once, and events must be pairwise distinct.
pub fn satisfies_conditions_1_3(
    pattern: &CompiledPattern,
    relation: &Relation,
    bindings: &[(VarId, EventId)],
) -> bool {
    let p = pattern.pattern();

    // Structural checks: binding multiplicities and event distinctness.
    let mut counts = vec![0usize; p.num_vars()];
    let mut events: Vec<EventId> = Vec::with_capacity(bindings.len());
    for &(v, e) in bindings {
        if v.index() >= p.num_vars() {
            return false;
        }
        counts[v.index()] += 1;
        events.push(e);
    }
    events.sort_unstable();
    if events.windows(2).any(|w| w[0] == w[1]) {
        return false; // events in a substitution are distinct
    }
    for (i, var) in p.variables().iter().enumerate() {
        let ok = if var.is_group() {
            counts[i] >= 1
        } else {
            counts[i] == 1
        };
        if !ok {
            return false;
        }
    }

    let events_of = |v: VarId| {
        bindings
            .iter()
            .filter(move |&&(var, _)| var == v)
            .map(|&(_, e)| e)
    };

    // Condition 1: every condition holds for every decomposition.
    for cond in pattern.conditions() {
        match &cond.rhs {
            CompiledRhs::Const(_) => {
                for e in events_of(cond.lhs_var) {
                    if !cond.eval_const(relation.event(e)) {
                        return false;
                    }
                }
            }
            CompiledRhs::Attr { var, .. } => {
                if *var == cond.lhs_var {
                    // Self-condition: each decomposition instantiates both
                    // occurrences to the same event.
                    for e in events_of(cond.lhs_var) {
                        let ev = relation.event(e);
                        if !cond.eval_vars(ev, ev) {
                            return false;
                        }
                    }
                } else {
                    for el in events_of(cond.lhs_var) {
                        for er in events_of(*var) {
                            if !cond.eval_vars(relation.event(el), relation.event(er)) {
                                return false;
                            }
                        }
                    }
                }
            }
        }
    }

    // Condition 2: events of set Vi strictly precede events of set Vi+1
    // (transitively: a strictly increasing chain of set extents).
    for i in 1..p.num_sets() {
        let max_prev = p
            .set(i - 1)
            .iter()
            .flat_map(|&v| events_of(v))
            .map(|e| relation.event(e).ts())
            .max();
        let min_cur = p
            .set(i)
            .iter()
            .flat_map(|&v| events_of(v))
            .map(|e| relation.event(e).ts())
            .min();
        match (max_prev, min_cur) {
            (Some(a), Some(b)) if a < b => {}
            _ => return false,
        }
    }

    // Condition 3: window.
    let min_ts = bindings
        .iter()
        .map(|&(_, e)| relation.event(e).ts())
        .min()
        .expect("non-empty substitution");
    let max_ts = bindings
        .iter()
        .map(|&(_, e)| relation.event(e).ts())
        .max()
        .expect("non-empty substitution");
    max_ts.distance(min_ts) <= p.within()
}

/// Brute-force enumeration of every substitution satisfying conditions
/// 1–3 (`Γ` of Definition 2). Exponential — intended for test oracles on
/// tiny inputs only; panics if the search space exceeds `limit` candidate
/// assignments.
pub fn enumerate_candidates(
    pattern: &CompiledPattern,
    relation: &Relation,
    limit: usize,
) -> Vec<Vec<(VarId, EventId)>> {
    let p = pattern.pattern();
    let n_vars = p.num_vars();
    let n_events = relation.len();
    // Each event is either unused (n_vars) or bound to one variable:
    // (n_vars+1)^n_events assignments.
    let space = (n_vars as u128 + 1).checked_pow(n_events as u32);
    assert!(
        space.is_some_and(|s| s <= limit as u128),
        "enumeration space too large for the oracle"
    );

    let mut out = Vec::new();
    let mut assignment = vec![n_vars; n_events]; // n_vars = unused
    loop {
        let mut bindings: Vec<(VarId, EventId)> = assignment
            .iter()
            .enumerate()
            .filter(|&(_, &v)| v < n_vars)
            .map(|(e, &v)| (VarId(v as u16), EventId::from(e)))
            .collect();
        bindings.sort_unstable_by_key(|&(var, ev)| (ev, var));
        if !bindings.is_empty() && satisfies_conditions_1_3(pattern, relation, &bindings) {
            out.push(bindings);
        }
        // Odometer increment.
        let mut i = 0;
        loop {
            if i == n_events {
                return out;
            }
            if assignment[i] == 0 {
                assignment[i] = n_vars;
                i += 1;
            } else {
                assignment[i] -= 1;
                break;
            }
        }
    }
}

/// The matches [`crate::select`] must return, computed the slow way: one
/// global filter over the whole candidate set, quadratic in its size and
/// linear in the relation per binding. No first-binding groups, no
/// indexes, no survivor store — the decomposition argument of the
/// `semantics` module is what `tests/adjudicator_vs_bruteforce.rs` checks
/// against this.
///
/// Candidates must satisfy conditions 1–3 (engine-produced raw matches
/// do by construction). Returns the survivors in canonical match order.
pub fn select_pairwise(
    raw: Vec<RawMatch>,
    relation: &Relation,
    pattern: &CompiledPattern,
    semantics: MatchSemantics,
) -> Vec<Match> {
    let mut candidates: Vec<Match> = raw.into_iter().map(Match::from_raw).collect();
    candidates.sort();
    candidates.dedup();
    if semantics == MatchSemantics::AllRuns {
        return candidates;
    }
    let kept: Vec<Match> = candidates
        .iter()
        .filter(|m| {
            survives_condition_4(m, relation, pattern, &candidates)
                && survives_condition_5(m, &candidates)
        })
        .cloned()
        .collect();
    if semantics == MatchSemantics::Definition2 {
        return kept;
    }
    // Maximal: drop matches properly contained in any Definition-2
    // survivor.
    kept.iter()
        .filter(|m| !kept.iter().any(|o| m.is_proper_subset_of(o)))
        .cloned()
        .collect()
}

/// Condition 4: no variable of γ could have bound a strictly earlier
/// in-extent event via an agreeing-prefix run. Implemented as the union
/// of the swap test (against the full `Γ`, via direct validity checking)
/// and the prefix test (against the accepted candidate set).
fn survives_condition_4(
    m: &Match,
    relation: &Relation,
    pattern: &CompiledPattern,
    candidates: &[Match],
) -> bool {
    let min_ts = relation.event(m.first_event()).ts();
    for &(var, event) in m.bindings() {
        let bound_ts = relation.event(event).ts();
        // Candidate earlier events strictly inside (minT, e.T). Event ids
        // are chronological, so a linear scan up to `event` suffices.
        // Start at the first retained event: anything evicted is older
        // than `minT` of every live candidate and would be skipped anyway.
        for alt_idx in relation.first_index()..event.index() {
            let alt = EventId::from(alt_idx);
            let alt_ts = relation.event(alt).ts();
            if alt_ts <= min_ts || alt_ts >= bound_ts {
                continue;
            }
            if m.events().any(|e| e == alt) {
                continue; // already used in γ (possibly by another variable)
            }
            if swap_is_valid(m, var, event, alt, relation, pattern)
                || prefix_alternative_exists(m, var, alt, alt_ts, relation, candidates)
            {
                return false;
            }
        }
    }
    true
}

/// `true` iff some candidate binds `var/alt` and agrees with `m` on every
/// binding strictly before `alt`'s timestamp (stream position for ties).
fn prefix_alternative_exists(
    m: &Match,
    var: VarId,
    alt: EventId,
    alt_ts: Timestamp,
    relation: &Relation,
    candidates: &[Match],
) -> bool {
    let prefix_of = |x: &Match| -> Vec<(VarId, EventId)> {
        x.bindings()
            .iter()
            .copied()
            .filter(|&(_, e)| relation.event(e).ts() < alt_ts)
            .collect()
    };
    let m_prefix = prefix_of(m);
    candidates
        .iter()
        .any(|other| other.contains(var, alt) && prefix_of(other) == m_prefix)
}

/// Checks whether γ with binding `var/event` replaced by `var/alt`
/// satisfies conditions 1–3.
fn swap_is_valid(
    m: &Match,
    var: VarId,
    event: EventId,
    alt: EventId,
    relation: &Relation,
    pattern: &CompiledPattern,
) -> bool {
    let mut bindings: Vec<(VarId, EventId)> = m
        .bindings()
        .iter()
        .map(|&(v, e)| {
            if v == var && e == event {
                (v, alt)
            } else {
                (v, e)
            }
        })
        .collect();
    bindings.sort_unstable_by_key(|&(v, e)| (e, v));
    satisfies_conditions_1_3(pattern, relation, &bindings)
}

/// Condition 5: not a proper subset of another candidate with the same
/// first binding.
fn survives_condition_5(m: &Match, all: &[Match]) -> bool {
    let first = m.bindings()[0];
    !all.iter()
        .any(|other| other.bindings()[0] == first && m.is_proper_subset_of(other))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ses_event::{AttrType, CmpOp, Duration, Schema, Timestamp, Value};
    use ses_pattern::Pattern;

    fn schema() -> Schema {
        Schema::builder()
            .attr("ID", AttrType::Int)
            .attr("L", AttrType::Str)
            .build()
            .unwrap()
    }

    fn rel(rows: &[(i64, i64, &str)]) -> Relation {
        let mut r = Relation::new(schema());
        for (ts, id, l) in rows {
            r.push_values(Timestamp::new(*ts), [Value::from(*id), Value::from(*l)])
                .unwrap();
        }
        r
    }

    fn ab_pattern() -> CompiledPattern {
        Pattern::builder()
            .set(|s| s.var("a"))
            .set(|s| s.var("b"))
            .cond_const("a", "L", CmpOp::Eq, "A")
            .cond_const("b", "L", CmpOp::Eq, "B")
            .cond_vars("a", "ID", CmpOp::Eq, "b", "ID")
            .within(Duration::ticks(10))
            .build()
            .unwrap()
            .compile(&schema())
            .unwrap()
    }

    fn bind(pairs: &[(u16, u32)]) -> Vec<(VarId, EventId)> {
        let mut v: Vec<(VarId, EventId)> = pairs
            .iter()
            .map(|&(var, e)| (VarId(var), EventId(e)))
            .collect();
        v.sort_unstable_by_key(|&(var, ev)| (ev, var));
        v
    }

    #[test]
    fn validator_accepts_good_substitution() {
        let cp = ab_pattern();
        let r = rel(&[(0, 1, "A"), (1, 1, "B")]);
        assert!(satisfies_conditions_1_3(&cp, &r, &bind(&[(0, 0), (1, 1)])));
    }

    #[test]
    fn validator_rejects_condition_violations() {
        let cp = ab_pattern();
        // Wrong label for b.
        let r = rel(&[(0, 1, "A"), (1, 1, "A")]);
        assert!(!satisfies_conditions_1_3(&cp, &r, &bind(&[(0, 0), (1, 1)])));
        // ID mismatch.
        let r = rel(&[(0, 1, "A"), (1, 2, "B")]);
        assert!(!satisfies_conditions_1_3(&cp, &r, &bind(&[(0, 0), (1, 1)])));
        // Set order violated (b before a).
        let r = rel(&[(0, 1, "B"), (1, 1, "A")]);
        assert!(!satisfies_conditions_1_3(&cp, &r, &bind(&[(0, 1), (1, 0)])));
        // Tie between sets (strict order required).
        let r = rel(&[(0, 1, "A"), (0, 1, "B")]);
        assert!(!satisfies_conditions_1_3(&cp, &r, &bind(&[(0, 0), (1, 1)])));
        // Window exceeded.
        let r = rel(&[(0, 1, "A"), (11, 1, "B")]);
        assert!(!satisfies_conditions_1_3(&cp, &r, &bind(&[(0, 0), (1, 1)])));
    }

    #[test]
    fn validator_rejects_structural_violations() {
        let cp = ab_pattern();
        let r = rel(&[(0, 1, "A"), (1, 1, "B"), (2, 1, "B")]);
        // Missing b binding.
        assert!(!satisfies_conditions_1_3(&cp, &r, &bind(&[(0, 0)])));
        // Duplicate singleton binding.
        assert!(!satisfies_conditions_1_3(
            &cp,
            &r,
            &bind(&[(0, 0), (1, 1), (1, 2)])
        ));
        // Same event bound twice.
        assert!(!satisfies_conditions_1_3(&cp, &r, &bind(&[(0, 0), (1, 0)])));
    }

    #[test]
    fn group_variables_need_at_least_one_binding() {
        let cp = Pattern::builder()
            .set(|s| s.plus("p"))
            .cond_const("p", "L", CmpOp::Eq, "P")
            .within(Duration::ticks(10))
            .build()
            .unwrap()
            .compile(&schema())
            .unwrap();
        let r = rel(&[(0, 1, "P"), (1, 1, "P")]);
        assert!(satisfies_conditions_1_3(&cp, &r, &bind(&[(0, 0)])));
        assert!(satisfies_conditions_1_3(&cp, &r, &bind(&[(0, 0), (0, 1)])));
        assert!(!satisfies_conditions_1_3(&cp, &r, &bind(&[])));
    }

    #[test]
    fn algorithm1_matches_the_engine_with_and_without_the_filter() {
        let cp = ab_pattern();
        let automaton = Automaton::build(cp.clone()).unwrap();
        let r = rel(&[
            (0, 1, "A"),
            (1, 2, "X"),
            (2, 2, "A"),
            (3, 1, "B"),
            (20, 2, "B"),
        ]);
        let mut engine = crate::execute(
            &automaton,
            &r,
            crate::EventSelection::default(),
            &mut crate::NoProbe,
        );
        engine.sort();
        let all: Vec<EventId> = (0..r.len()).map(EventId::from).collect();
        let mut unfiltered = algorithm1(&automaton, &r, all.iter().copied());
        unfiltered.sort();
        assert_eq!(unfiltered, engine);
        assert_eq!(
            unfiltered.len(),
            1,
            "the second patient's B is out of the window"
        );
        let kept = all.into_iter().filter(|&e| paper_filter(&cp, r.event(e)));
        let mut filtered = algorithm1(&automaton, &r, kept);
        filtered.sort();
        assert_eq!(filtered, engine);
    }

    #[test]
    fn enumerator_finds_gamma() {
        let cp = ab_pattern();
        let r = rel(&[(0, 1, "A"), (1, 1, "B"), (2, 1, "B")]);
        let gamma = enumerate_candidates(&cp, &r, 1_000_000);
        // {a/e1,b/e2} and {a/e1,b/e3}.
        assert_eq!(gamma.len(), 2);
        assert!(gamma.contains(&bind(&[(0, 0), (1, 1)])));
        assert!(gamma.contains(&bind(&[(0, 0), (1, 2)])));
    }

    #[test]
    #[should_panic(expected = "enumeration space too large")]
    fn enumerator_guards_space() {
        let cp = ab_pattern();
        let rows: Vec<(i64, i64, &str)> = (0..40).map(|i| (i, 1, "A")).collect();
        let r = rel(&rows);
        enumerate_candidates(&cp, &r, 1000);
    }
}
