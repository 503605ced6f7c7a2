//! Interchangeable variables: the symmetry the automaton can quotient by.
//!
//! Two singleton variables `c` and `d` of one event set pattern are
//! *interchangeable* when swapping them leaves `Θ` (and every negation's
//! conditions) unchanged as a set of conditions. Then every run of the
//! automaton has a twin with `c` and `d` exchanged, and every match an
//! image under the swap: Theorem 2's `n!` instances per start are, for `n`
//! interchangeable variables, `n!` orderings of one answer. `ses-core`
//! runs one ordering per answer and expands each match into its images on
//! the way out (see `docs/adjudication.md`).
//!
//! The test is syntactic, not semantic. Each condition is first oriented
//! canonically — the smaller `(variable, attribute)` side on the left, the
//! operator flipped to match — so `c.ID = b.ID ∧ d.ID = b.ID` and
//! `c.ID = d.ID` are both invariant under `c ↔ d`. An equivalent but
//! differently written `Θ` is not enough: `{c.L = 'C', d.L = c.L}`
//! implies `d.L = 'C'`, but the automaton binding `d` first checks no
//! type, and under greedy skip-till-next-match that changes the runs.
//!
//! Invariance under a transposition is an equivalence relation on the
//! variables (the product of two invariant transpositions sharing a
//! variable generates the third), so the classes are the connected
//! components of the invariant pairs, and every permutation of a class
//! leaves `Θ` unchanged.

use std::collections::BTreeSet;

use crate::closure::UnionFind;
use crate::condition::Rhs;
use crate::relate::{render_negation, render_var_cond, value_key};
use crate::{Pattern, VarId};

/// The interchangeable classes of `pattern`: each class two or more
/// singleton variables of one event set pattern, members ascending by
/// [`VarId`], classes ascending by their first member. Group variables
/// never join a class. Empty when the pattern has none — the common case,
/// including every pattern whose variables carry distinct constants.
pub fn interchangeable_classes(pattern: &Pattern) -> Vec<Vec<VarId>> {
    let mut uf = UnionFind::new(pattern.num_vars());
    for set in pattern.sets() {
        let singles: Vec<VarId> = set
            .iter()
            .copied()
            .filter(|&v| !pattern.var(v).is_group())
            .collect();
        for (i, &a) in singles.iter().enumerate() {
            for &b in &singles[i + 1..] {
                if uf.find(a.index()) != uf.find(b.index()) && swap_invariant(pattern, a, b) {
                    uf.union(a.index(), b.index());
                }
            }
        }
    }
    let mut classes: Vec<Vec<VarId>> = Vec::new();
    let mut class_of_root: Vec<Option<usize>> = vec![None; pattern.num_vars()];
    for i in 0..pattern.num_vars() {
        let root = uf.find(i);
        match class_of_root[root] {
            Some(c) => classes[c].push(VarId(i as u16)),
            None => {
                class_of_root[root] = Some(classes.len());
                classes.push(vec![VarId(i as u16)]);
            }
        }
    }
    classes.retain(|c| c.len() > 1);
    classes
}

/// `true` iff exchanging `a` and `b` maps `Θ` onto itself and every
/// negation's conditions onto themselves: both render to the same keys
/// with the two variables' positions swapped (the orientation-normalized,
/// type-tagged renderings [`crate::relate`] compares patterns by).
fn swap_invariant(pattern: &Pattern, a: VarId, b: VarId) -> bool {
    let swapped = |v: VarId| {
        if v == a {
            b.index()
        } else if v == b {
            a.index()
        } else {
            v.index()
        }
    };
    keys(pattern, &|v| v.index()) == keys(pattern, &swapped)
}

/// `Θ` and the negations rendered with variable `v` at position
/// `pos(v)`, as a set.
fn keys(pattern: &Pattern, pos: &dyn Fn(VarId) -> usize) -> BTreeSet<String> {
    let conditions = pattern.conditions().iter().map(|c| {
        render_var_cond(c, pos).unwrap_or_else(|| {
            let Rhs::Const(value) = &c.rhs else {
                unreachable!("a condition without a variable right-hand side is constant")
            };
            format!(
                "@{}.{} {} {}",
                pos(c.lhs.var),
                c.lhs.attr,
                c.op,
                value_key(value)
            )
        })
    });
    let negations = pattern.negations().iter().map(|n| render_negation(n, pos));
    conditions.chain(negations).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ses_event::{CmpOp, Duration};

    fn names(p: &Pattern) -> Vec<Vec<String>> {
        interchangeable_classes(p)
            .iter()
            .map(|c| c.iter().map(|&v| p.var(v).name().to_string()).collect())
            .collect()
    }

    fn cdp_b() -> crate::PatternBuilder {
        Pattern::builder()
            .set(|s| s.var("c").var("d").plus("p"))
            .set(|s| s.var("b"))
            .cond_const("c", "L", CmpOp::Eq, "V")
            .cond_const("d", "L", CmpOp::Eq, "V")
            .cond_const("p", "L", CmpOp::Eq, "V")
            .cond_const("b", "L", CmpOp::Eq, "B")
            .within(Duration::ticks(10))
    }

    #[test]
    fn same_type_singletons_form_a_class_and_the_group_stays_out() {
        assert_eq!(names(&cdp_b().build().unwrap()), [["c", "d"]]);
    }

    #[test]
    fn correlations_through_a_third_variable_and_between_members_are_invariant() {
        let p = cdp_b()
            .cond_vars("c", "ID", CmpOp::Eq, "b", "ID")
            .cond_vars("b", "ID", CmpOp::Eq, "d", "ID")
            .cond_vars("c", "ID", CmpOp::Eq, "d", "ID")
            .build()
            .unwrap();
        assert_eq!(names(&p), [["c", "d"]]);
    }

    #[test]
    fn an_asymmetric_condition_breaks_the_class() {
        let ordered = cdp_b()
            .cond_vars("c", "ID", CmpOp::Lt, "d", "ID")
            .build()
            .unwrap();
        assert!(names(&ordered).is_empty());
        let one_sided = cdp_b()
            .cond_vars("c", "ID", CmpOp::Eq, "b", "ID")
            .build()
            .unwrap();
        assert!(names(&one_sided).is_empty());
    }

    #[test]
    fn semantic_equivalence_is_not_enough() {
        // d.L = c.L with c.L = 'C' implies d.L = 'C', but a run binding d
        // first checks no type at all.
        let p = Pattern::builder()
            .set(|s| s.var("c").var("d"))
            .cond_const("c", "L", CmpOp::Eq, "C")
            .cond_vars("d", "L", CmpOp::Eq, "c", "L")
            .within(Duration::ticks(10))
            .build()
            .unwrap();
        assert!(names(&p).is_empty());
    }

    #[test]
    fn constants_compare_by_type_and_value() {
        let p = Pattern::builder()
            .set(|s| s.var("c").var("d"))
            .cond_const("c", "ID", CmpOp::Eq, 1)
            .cond_const("d", "ID", CmpOp::Eq, 1.0)
            .within(Duration::ticks(10))
            .build()
            .unwrap();
        assert!(names(&p).is_empty());
    }

    #[test]
    fn variables_of_different_sets_never_join() {
        let p = Pattern::builder()
            .set(|s| s.var("c"))
            .set(|s| s.var("d"))
            .cond_const("c", "L", CmpOp::Eq, "V")
            .cond_const("d", "L", CmpOp::Eq, "V")
            .within(Duration::ticks(10))
            .build()
            .unwrap();
        assert!(names(&p).is_empty());
    }

    #[test]
    fn three_members_and_two_classes() {
        let p = Pattern::builder()
            .set(|s| s.var("a").var("b").var("c").var("x").var("y"))
            .cond_const("a", "L", CmpOp::Eq, "A")
            .cond_const("b", "L", CmpOp::Eq, "A")
            .cond_const("c", "L", CmpOp::Eq, "A")
            .cond_const("x", "L", CmpOp::Eq, "X")
            .cond_const("y", "L", CmpOp::Eq, "X")
            .within(Duration::ticks(10))
            .build()
            .unwrap();
        assert_eq!(names(&p), vec![vec!["a", "b", "c"], vec!["x", "y"]]);
    }

    #[test]
    fn negations_must_be_invariant_too() {
        let scoped = |other: &str| {
            Pattern::builder()
                .set(|s| s.var("c").var("d"))
                .negate("n")
                .set(|s| s.var("b"))
                .cond_const("c", "L", CmpOp::Eq, "V")
                .cond_const("d", "L", CmpOp::Eq, "V")
                .cond_const("b", "L", CmpOp::Eq, "B")
                .neg_cond_const("n", "L", CmpOp::Eq, "X")
                .neg_cond_vars("n", "ID", CmpOp::Eq, other, "ID")
                .within(Duration::ticks(10))
                .build()
                .unwrap()
        };
        assert!(names(&scoped("c")).is_empty(), "n.ID = c.ID singles out c");
        assert_eq!(names(&scoped("b")), [["c", "d"]]);
    }
}
