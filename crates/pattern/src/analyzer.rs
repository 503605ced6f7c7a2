//! The multi-pass static analyzer pipeline: [`analyze`].
//!
//! Runs, in order:
//!
//! 1. **Schema check** — compiles the pattern; failures surface as
//!    `SES005` diagnostics instead of hard errors.
//! 2. **Complexity lint** — event set patterns whose instance bound is
//!    factorial or exponential (Theorems 2–3, via
//!    [`crate::ComplexityClass`]) get a `SES004` warning before the user
//!    pays `O(n!)` at runtime; each class of interchangeable variables
//!    ([`crate::interchangeable_classes`]), whose `k!` orderings the
//!    automaton does not run, gets a `SES008` info.
//! 3. **Equality closure + order-and-constant propagation**
//!    ([`crate::equality_closure`], [`crate::propagate`]) — proves
//!    unsatisfiability (`SES001`) or derives constant conditions for
//!    variables that had none.
//! 4. **Redundancy** — constant conditions implied by the *other*
//!    explicit constant conditions on the same `(variable, attribute)`
//!    (interval [`crate::Domain`] reasoning) get `SES002` and are dropped
//!    from the rewritten pattern.
//! 5. **Filter audit** — if some variable still lacks a constant
//!    condition after derivation, it admits every event, so the §4.5
//!    pre-filter drops none (`SES003` warning); if derivation *rescued*
//!    the filter, `SES003` is reported at info severity instead.
//!
//! The returned [`Analysis::pattern`] is the rewritten pattern: redundant
//! constants removed, derived constants added. The equality closure is
//! used *internally* for propagation but its extra variable conditions
//! are not injected (that stays the `derive_equalities` opt-in). Every
//! rewrite preserves conditions 1–3 of Definition 2, so the substitutions
//! that satisfy Θ are the input pattern's, and under skip-till-any-match
//! so is the match set. Under greedy skip-till-next-match it can differ:
//! a derived constant is checked when its variable binds, which can keep
//! a run from absorbing an event that would derail it, so the rewritten
//! pattern may find matches the input misses (see `docs/analysis.md`,
//! "Soundness of the rewrite").

use ses_event::Schema;

use crate::closure::equality_closure;
use crate::condition::Rhs;
use crate::diagnostics::{Diagnostic, DiagnosticCode, Diagnostics, Severity};
use crate::domain::Domain;
use crate::propagate::propagate;
use crate::{Condition, Pattern, VarId};

/// The analyzer's verdict on one pattern.
#[derive(Debug)]
pub struct Analysis {
    /// The rewritten pattern: derived constants added, redundant
    /// constant conditions removed. Equals the input when nothing was
    /// rewritten (or when `SES005` prevented analysis).
    pub pattern: Pattern,
    /// All findings, in pass order.
    pub diagnostics: Diagnostics,
    /// `false` iff `Θ` is provably unsatisfiable (`SES001`).
    pub satisfiable: bool,
    /// Derived constant conditions added to the rewritten pattern.
    pub derived: Vec<Condition>,
    /// Indices (into the input pattern's conditions) of redundant
    /// constant conditions dropped from the rewritten pattern.
    pub redundant: Vec<usize>,
}

/// Runs the full static-analysis pipeline on `pattern` (see the module
/// docs).
pub fn analyze(pattern: &Pattern, schema: &Schema) -> Analysis {
    let mut diagnostics = Diagnostics::new();

    // Pass 1: schema check. Without a well-typed pattern the interval
    // reasoning below has no footing, so SES005 ends the pipeline.
    let compiled = match pattern.compile(schema) {
        Ok(c) => c,
        Err(e) => {
            diagnostics.push(Diagnostic::new(
                DiagnosticCode::SchemaMismatch,
                e.to_string(),
            ));
            return Analysis {
                pattern: pattern.clone(),
                diagnostics,
                satisfiable: true,
                derived: Vec::new(),
                redundant: Vec::new(),
            };
        }
    };

    // Pass 2: complexity lint (Theorems 2–3).
    for (i, class) in compiled.analysis().set_classes().iter().enumerate() {
        if class.is_superpolynomial() {
            diagnostics.push(Diagnostic::new(
                DiagnosticCode::ComplexityBound,
                format!(
                    "event set pattern V{} has instance bound {class}; \
                     consider mutually exclusive constant conditions (Definition 6)",
                    i + 1
                ),
            ));
        }
    }

    // Pass 2b: interchangeable variables — the share of those bounds the
    // automaton's quotient does not pay.
    for class in compiled.interchangeable_classes() {
        let set = pattern.var(class[0]).set_index() + 1;
        let names: Vec<&str> = class.iter().map(|&v| pattern.var(v).name()).collect();
        diagnostics.push(Diagnostic::new(
            DiagnosticCode::InterchangeableVariables,
            format!(
                "{} in V{set} are interchangeable ({}!)",
                names.join(", "),
                class.len()
            ),
        ));
    }

    // Pass 3: closure + propagation.
    let closed = equality_closure(pattern);
    let prop = propagate(&closed);
    if let Some(reason) = prop.unsat {
        diagnostics.push(Diagnostic::new(
            DiagnosticCode::Unsatisfiable,
            format!("Θ is unsatisfiable: {reason}; the pattern can never match"),
        ));
        return Analysis {
            pattern: pattern.clone(),
            diagnostics,
            satisfiable: false,
            derived: Vec::new(),
            redundant: Vec::new(),
        };
    }

    // Pass 4: redundant constant conditions, judged against the *other*
    // explicit constants on the same node only — dropping them is then
    // behavior-preserving under every engine, not just the reference
    // semantics (same-variable constants evaluate per event).
    let redundant = redundant_constants(pattern);
    let names = |v: VarId| pattern.var(v).name().to_string();
    for &i in &redundant {
        diagnostics.push(
            Diagnostic::new(
                DiagnosticCode::RedundantCondition,
                format!(
                    "condition `{}` is implied by the other constant conditions on the \
                     same attribute and was dropped",
                    crate::condition::display_condition(&pattern.conditions()[i], &names)
                ),
            )
            .with_condition(i),
        );
    }

    // Pass 5: filter audit. A variable without any constant condition
    // (explicit or derived) forces the §4.5 filter to Off.
    let constrained = |conds: &[&Condition], var: VarId| {
        conds
            .iter()
            .any(|c| c.lhs.var == var && matches!(c.rhs, Rhs::Const(_)))
    };
    let explicit: Vec<&Condition> = pattern.conditions().iter().collect();
    let with_derived: Vec<&Condition> = explicit
        .iter()
        .copied()
        .chain(prop.derived.iter())
        .collect();
    let mut rescued: Vec<String> = Vec::new();
    let mut still_open: Vec<String> = Vec::new();
    for i in 0..pattern.num_vars() {
        let var = VarId(i as u16);
        if constrained(&explicit, var) {
            continue;
        }
        if constrained(&with_derived, var) {
            rescued.push(pattern.var(var).name().to_string());
        } else {
            still_open.push(pattern.var(var).name().to_string());
        }
    }
    if !still_open.is_empty() {
        diagnostics.push(Diagnostic::new(
            DiagnosticCode::FilterDowngraded,
            format!(
                "variable(s) {} have no constant condition (none derivable): they admit \
                 every event, so the §4.5 event pre-filter drops none",
                still_open.join(", ")
            ),
        ));
    } else if !rescued.is_empty() {
        diagnostics.push(
            Diagnostic::new(
                DiagnosticCode::FilterDowngraded,
                format!(
                    "variable(s) {} gained derived constant conditions; on the \
                     rewritten pattern the event pre-filter drops the events no \
                     variable admits instead of admitting every event",
                    rescued.join(", ")
                ),
            )
            .with_severity(Severity::Info),
        );
    }

    // Assemble the rewritten pattern: the input's conditions minus the
    // redundant ones, plus the derived constants. The closure's extra
    // *variable* conditions are deliberately NOT injected (see
    // `derive_equalities` for the opt-in). Both kinds of edit steer greedy
    // skip-till-next-match: a derived constant, like an injected
    // equality, can keep a run from absorbing an event that would derail
    // it. Dropping a redundant constant changes nothing anywhere.
    let conditions: Vec<Condition> = pattern
        .conditions()
        .iter()
        .enumerate()
        .filter(|(i, _)| !redundant.contains(i))
        .map(|(_, c)| c.clone())
        .chain(prop.derived.iter().cloned())
        .collect();
    let rewritten = Pattern::from_parts(
        pattern.variables().to_vec(),
        pattern.sets().to_vec(),
        conditions,
        pattern.negations().to_vec(),
        pattern.within(),
    );

    Analysis {
        pattern: rewritten,
        diagnostics,
        satisfiable: true,
        derived: prop.derived,
        redundant,
    }
}

/// Decides whether `Θ` is provably unsatisfiable — the check
/// [`crate::CompiledPattern`] runs once at compile time so the engine can
/// refuse provably-empty patterns without scanning a single event.
pub fn provably_unsatisfiable(pattern: &Pattern) -> Option<String> {
    propagate(&equality_closure(pattern)).unsat
}

/// Indices of constant conditions implied by the *other* explicit
/// constant conditions on the same `(variable, attribute)`. Scanned in
/// order so that of two mutually implying conditions (e.g. exact
/// duplicates) exactly one survives.
fn redundant_constants(pattern: &Pattern) -> Vec<usize> {
    let conds = pattern.conditions();
    let mut dropped = vec![false; conds.len()];
    let mut out = Vec::new();
    for (i, c) in conds.iter().enumerate() {
        let Rhs::Const(value) = &c.rhs else { continue };
        // Domain of every other surviving constant condition on this node.
        let mut others = Domain::top();
        for (j, o) in conds.iter().enumerate() {
            if i == j || dropped[j] || o.lhs.var != c.lhs.var || o.lhs.attr != c.lhs.attr {
                continue;
            }
            if let Rhs::Const(v) = &o.rhs {
                others.constrain(o.op, v);
            }
        }
        // An empty `others` domain would imply everything vacuously, but
        // that is the SES001 case — `analyze` never reaches this pass
        // then; `provably_unsatisfiable` guards direct callers too.
        if !others.is_empty() && others.implies(c.op, value) {
            dropped[i] = true;
            out.push(i);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ses_event::{AttrType, CmpOp, Duration};

    fn schema() -> Schema {
        Schema::builder()
            .attr("ID", AttrType::Int)
            .attr("L", AttrType::Str)
            .attr("V", AttrType::Float)
            .build()
            .unwrap()
    }

    fn codes(a: &Analysis) -> Vec<&'static str> {
        a.diagnostics.iter().map(|d| d.code.as_str()).collect()
    }

    #[test]
    fn clean_pattern_has_no_findings() {
        let p = Pattern::builder()
            .set(|s| s.var("a").var("b"))
            .cond_const("a", "L", CmpOp::Eq, "A")
            .cond_const("b", "L", CmpOp::Eq, "B")
            .within(Duration::ticks(10))
            .build()
            .unwrap();
        let a = analyze(&p, &schema());
        assert!(a.diagnostics.is_empty(), "{}", a.diagnostics);
        assert!(a.satisfiable);
        assert_eq!(a.pattern.conditions().len(), 2);
    }

    #[test]
    fn unsatisfiable_interval_reports_ses001() {
        let p = Pattern::builder()
            .set(|s| s.var("a"))
            .cond_const("a", "V", CmpOp::Gt, 10.0)
            .cond_const("a", "V", CmpOp::Lt, 5.0)
            .build()
            .unwrap();
        let a = analyze(&p, &schema());
        assert!(!a.satisfiable);
        assert!(a.diagnostics.has_errors());
        assert_eq!(codes(&a), vec!["SES001"]);
    }

    #[test]
    fn redundant_condition_reports_ses002_and_is_dropped() {
        let p = Pattern::builder()
            .set(|s| s.var("a"))
            .cond_const("a", "V", CmpOp::Lt, 5.0)
            .cond_const("a", "V", CmpOp::Lt, 7.0) // implied by < 5
            .build()
            .unwrap();
        let a = analyze(&p, &schema());
        assert_eq!(codes(&a), vec!["SES002"]);
        assert_eq!(a.redundant, vec![1]);
        assert_eq!(a.pattern.conditions().len(), 1);
        assert!(a.diagnostics.iter().next().unwrap().condition == Some(1));
    }

    #[test]
    fn duplicate_conditions_keep_exactly_one() {
        let p = Pattern::builder()
            .set(|s| s.var("a"))
            .cond_const("a", "V", CmpOp::Lt, 5.0)
            .cond_const("a", "V", CmpOp::Lt, 5.0)
            .build()
            .unwrap();
        let a = analyze(&p, &schema());
        assert_eq!(a.redundant, vec![0]);
        assert_eq!(a.pattern.conditions().len(), 1);
    }

    #[test]
    fn filter_downgrade_reports_ses003_warning() {
        let p = Pattern::builder()
            .set(|s| s.var("a"))
            .set(|s| s.var("free"))
            .cond_const("a", "L", CmpOp::Eq, "A")
            .build()
            .unwrap();
        let a = analyze(&p, &schema());
        assert_eq!(codes(&a), vec!["SES003"]);
        let d = a.diagnostics.iter().next().unwrap();
        assert_eq!(d.severity, Severity::Warning);
        assert!(d.message.contains("free"), "{}", d.message);
    }

    #[test]
    fn derived_constant_rescues_filter_as_info() {
        // `b` has no constant condition, but b.L = a.L ∧ a.L = 'A'
        // derives b.L = 'A'.
        let p = Pattern::builder()
            .set(|s| s.var("a"))
            .set(|s| s.var("b"))
            .cond_const("a", "L", CmpOp::Eq, "A")
            .cond_vars("b", "L", CmpOp::Eq, "a", "L")
            .build()
            .unwrap();
        let a = analyze(&p, &schema());
        assert_eq!(codes(&a), vec!["SES003"]);
        let d = a.diagnostics.iter().next().unwrap();
        assert_eq!(d.severity, Severity::Info);
        assert!(!a.diagnostics.has_errors());
        assert_eq!(a.derived.len(), 1);
        // The rewritten pattern is fully constrained.
        let cp = a.pattern.compile(&schema()).unwrap();
        assert!(cp.every_var_constrained());
    }

    #[test]
    fn factorial_class_reports_ses004() {
        let p = Pattern::builder()
            .set(|s| s.var("x").var("y"))
            .cond_const("x", "L", CmpOp::Eq, "M")
            .cond_const("y", "L", CmpOp::Eq, "M")
            .build()
            .unwrap();
        let a = analyze(&p, &schema());
        // x and y are interchangeable too: the bound's 2! is one class.
        assert_eq!(codes(&a), vec!["SES004", "SES008"]);
        assert!(!a.diagnostics.has_errors());
    }

    #[test]
    fn schema_mismatch_reports_ses005() {
        let p = Pattern::builder()
            .set(|s| s.var("a"))
            .cond_const("a", "NOPE", CmpOp::Eq, 1)
            .build()
            .unwrap();
        let a = analyze(&p, &schema());
        assert_eq!(codes(&a), vec!["SES005"]);
        assert!(a.diagnostics.has_errors());
        // The pattern is returned unrewritten.
        assert_eq!(a.pattern.conditions().len(), 1);
    }

    #[test]
    fn unsat_via_equality_closure_and_propagation() {
        // a.ID = b.ID, b.ID = 5, a.ID > 9 — only visible through the
        // equality edge.
        let p = Pattern::builder()
            .set(|s| s.var("a").var("b"))
            .cond_vars("a", "ID", CmpOp::Eq, "b", "ID")
            .cond_const("b", "ID", CmpOp::Eq, 5)
            .cond_const("a", "ID", CmpOp::Gt, 9)
            .build()
            .unwrap();
        let a = analyze(&p, &schema());
        assert!(!a.satisfiable);
        assert!(provably_unsatisfiable(&p).is_some());
    }

    #[test]
    fn rewritten_pattern_reanalyzes_clean() {
        let p = Pattern::builder()
            .set(|s| s.var("a").var("b"))
            .cond_const("a", "ID", CmpOp::Ge, 3)
            .cond_const("a", "ID", CmpOp::Ge, 1) // redundant
            .cond_const("a", "L", CmpOp::Eq, "A")
            .cond_const("b", "L", CmpOp::Eq, "B")
            .cond_vars("b", "ID", CmpOp::Eq, "a", "ID")
            .build()
            .unwrap();
        let first = analyze(&p, &schema());
        assert!(first.satisfiable);
        let second = analyze(&first.pattern, &schema());
        assert!(second.derived.is_empty(), "{:?}", second.derived);
        assert!(second.redundant.is_empty(), "{:?}", second.redundant);
    }
}
