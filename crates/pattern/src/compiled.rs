//! Schema-resolved patterns ready for automaton construction.

use ses_event::{AttrId, CmpOp, Event, Schema, Value};

use crate::analysis::PatternAnalysis;
use crate::closure::UnionFind;
use crate::condition::Rhs;
use crate::{Pattern, PatternError, VarId};

/// Right-hand side of a compiled condition.
#[derive(Debug, Clone, PartialEq)]
pub enum CompiledRhs {
    /// Constant `C`.
    Const(Value),
    /// Attribute `v'.A'` with the attribute resolved to a dense id.
    Attr {
        /// The other variable `v'`.
        var: VarId,
        /// The resolved attribute `A'`.
        attr: AttrId,
    },
}

/// A condition with attribute names resolved to [`AttrId`]s and types
/// checked against the schema.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledCondition {
    /// Left-hand variable `v`.
    pub lhs_var: VarId,
    /// Left-hand attribute `A`.
    pub lhs_attr: AttrId,
    /// Comparison operator `φ`.
    pub op: CmpOp,
    /// Right-hand side.
    pub rhs: CompiledRhs,
    /// Index of the source [`crate::Condition`] in the pattern.
    pub source: usize,
}

impl CompiledCondition {
    /// `true` iff this is a constant condition `v.A φ C`.
    pub fn is_constant(&self) -> bool {
        matches!(self.rhs, CompiledRhs::Const(_))
    }

    /// The right-hand variable of a variable condition.
    pub fn other_var(&self) -> Option<VarId> {
        match &self.rhs {
            CompiledRhs::Const(_) => None,
            CompiledRhs::Attr { var, .. } => Some(*var),
        }
    }

    /// Evaluates a **constant** condition against an event bound to the
    /// left-hand variable. Panics when called on a variable condition.
    #[inline]
    pub fn eval_const(&self, event: &Event) -> bool {
        match &self.rhs {
            CompiledRhs::Const(c) => event.value(self.lhs_attr).compare(self.op, c),
            CompiledRhs::Attr { .. } => panic!("eval_const on variable condition"),
        }
    }

    /// Evaluates a **variable** condition given the event bound to the
    /// left-hand variable and the event bound to the right-hand variable
    /// (they may be the same event for self-conditions `v.A φ v.A'`).
    /// Panics when called on a constant condition.
    #[inline]
    pub fn eval_vars(&self, lhs_event: &Event, rhs_event: &Event) -> bool {
        match &self.rhs {
            CompiledRhs::Attr { attr, .. } => lhs_event
                .value(self.lhs_attr)
                .compare(self.op, rhs_event.value(*attr)),
            CompiledRhs::Const(_) => panic!("eval_vars on constant condition"),
        }
    }
}

/// A pattern compiled against a concrete schema.
///
/// Owns the source [`Pattern`], the resolved conditions, per-variable
/// indexes over the constant conditions (used by the §4.5 event filter),
/// and the static [`PatternAnalysis`].
#[derive(Debug, Clone)]
pub struct CompiledPattern {
    pattern: Pattern,
    schema: Schema,
    conditions: Vec<CompiledCondition>,
    negations: Vec<crate::CompiledNegation>,
    const_conds_by_var: Vec<Vec<usize>>,
    analysis: PatternAnalysis,
    unsatisfiable: Option<String>,
    partition_keys: Vec<AttrId>,
    interchangeable: Vec<Vec<VarId>>,
}

impl CompiledPattern {
    pub(crate) fn compile(
        pattern: Pattern,
        schema: &Schema,
    ) -> Result<CompiledPattern, PatternError> {
        // Defense in depth: `PatternBuilder::build` enforces the same
        // limit, but patterns constructed by other front ends must not
        // slip past it — the automaton's state bitsets and the engine's
        // per-event type-precheck mask are `u64`s, so `VarId::bit()`
        // silently overflows beyond 64 variables.
        if pattern.num_vars() > 64 {
            return Err(PatternError::TooManyVariables(pattern.num_vars()));
        }
        let mut conditions = Vec::with_capacity(pattern.conditions().len());
        let mut const_conds_by_var = vec![Vec::new(); pattern.num_vars()];

        for (source, cond) in pattern.conditions().iter().enumerate() {
            let pretty = || {
                crate::condition::display_condition(cond, &|v| pattern.var(v).name().to_string())
            };
            let lhs_attr =
                schema
                    .attr_id(&cond.lhs.attr)
                    .ok_or_else(|| PatternError::UnknownAttribute {
                        attr: cond.lhs.attr.to_string(),
                    })?;
            let lhs_ty = schema.attr_type(lhs_attr);
            let rhs = match &cond.rhs {
                Rhs::Const(v) => {
                    if let Value::Float(f) = v {
                        if f.is_nan() {
                            return Err(PatternError::NanConstant {
                                condition: pretty(),
                            });
                        }
                    }
                    if !lhs_ty.comparable_with(v.attr_type()) {
                        return Err(PatternError::IncomparableTypes {
                            condition: pretty(),
                            lhs: lhs_ty,
                            rhs: v.attr_type(),
                        });
                    }
                    CompiledRhs::Const(v.clone())
                }
                Rhs::Attr(r) => {
                    let attr =
                        schema
                            .attr_id(&r.attr)
                            .ok_or_else(|| PatternError::UnknownAttribute {
                                attr: r.attr.to_string(),
                            })?;
                    let rhs_ty = schema.attr_type(attr);
                    if !lhs_ty.comparable_with(rhs_ty) {
                        return Err(PatternError::IncomparableTypes {
                            condition: pretty(),
                            lhs: lhs_ty,
                            rhs: rhs_ty,
                        });
                    }
                    CompiledRhs::Attr { var: r.var, attr }
                }
            };
            if matches!(rhs, CompiledRhs::Const(_)) {
                const_conds_by_var[cond.lhs.var.index()].push(conditions.len());
            }
            conditions.push(CompiledCondition {
                lhs_var: cond.lhs.var,
                lhs_attr,
                op: cond.op,
                rhs,
                source,
            });
        }

        let pretty_var = |v: VarId| pattern.var(v).name().to_string();
        let mut negations = Vec::with_capacity(pattern.negations().len());
        for neg in pattern.negations() {
            negations.push(crate::CompiledNegation::compile(neg, schema, &pretty_var)?);
        }

        let analysis = PatternAnalysis::analyze(&pattern, &conditions);
        let unsatisfiable = crate::analyzer::provably_unsatisfiable(&pattern);
        let partition_keys = infer_partition_keys(&pattern, &conditions, schema);
        let interchangeable = crate::interchangeable_classes(&pattern);
        Ok(CompiledPattern {
            pattern,
            schema: schema.clone(),
            conditions,
            negations,
            const_conds_by_var,
            analysis,
            unsatisfiable,
            partition_keys,
            interchangeable,
        })
    }

    /// The source pattern.
    pub fn pattern(&self) -> &Pattern {
        &self.pattern
    }

    /// The schema the pattern was compiled against.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// All compiled conditions, in source order.
    pub fn conditions(&self) -> &[CompiledCondition] {
        &self.conditions
    }

    /// The compiled condition at `idx`.
    pub fn condition(&self, idx: usize) -> &CompiledCondition {
        &self.conditions[idx]
    }

    /// The compiled negations (empty unless the pattern uses the
    /// negation extension).
    pub fn negations(&self) -> &[crate::CompiledNegation] {
        &self.negations
    }

    /// Indices of the constant conditions whose left-hand variable is
    /// `var`.
    pub fn const_conditions_of(&self, var: VarId) -> &[usize] {
        &self.const_conds_by_var[var.index()]
    }

    /// `true` iff `event` satisfies **all** constant conditions of `var`
    /// (a necessary criterion for the event to ever bind to `var`).
    pub fn satisfies_var_constants(&self, var: VarId, event: &Event) -> bool {
        self.const_conds_by_var[var.index()]
            .iter()
            .all(|&i| self.conditions[i].eval_const(event))
    }

    /// `true` iff `event` satisfies **at least one** constant condition of
    /// the whole pattern — the paper's §4.5 filter criterion.
    pub fn satisfies_any_constant(&self, event: &Event) -> bool {
        self.conditions
            .iter()
            .filter(|c| c.is_constant())
            .any(|c| c.eval_const(event))
    }

    /// `true` iff every variable has at least one constant condition. When
    /// false, some variable admits every event, so the engine's §4.5
    /// filter drops none (and the paper's "any constant" criterion would
    /// be unsound).
    pub fn every_var_constrained(&self) -> bool {
        self.const_conds_by_var.iter().all(|v| !v.is_empty())
    }

    /// The static analysis (mutual exclusion, complexity classes).
    pub fn analysis(&self) -> &PatternAnalysis {
        &self.analysis
    }

    /// `false` iff constraint propagation proved `Θ` unsatisfiable at
    /// compile time — the matcher can then return the empty answer without
    /// scanning a single event. See [`crate::provably_unsatisfiable`].
    pub fn is_satisfiable(&self) -> bool {
        self.unsatisfiable.is_none()
    }

    /// The unsatisfiability proof, when [`Self::is_satisfiable`] is false.
    pub fn unsatisfiable_reason(&self) -> Option<&str> {
        self.unsatisfiable.as_deref()
    }

    /// The attributes proven to be **partition keys**: every match binds
    /// only events sharing one value of the attribute, so the relation
    /// can be split per distinct value and matched independently without
    /// changing the answer set (cross-partition matches are impossible).
    ///
    /// Attribute `A` is proven iff the equality-condition graph over
    /// `(variable, attribute)` nodes connects `(v, A)` for *every*
    /// variable `v` of the pattern — each edge `v.A = v'.A'` equates the
    /// values across **all** bindings of both variables (group variables
    /// included, since each binding is checked against each), so
    /// connectivity transports one key value to every bound event. A
    /// single-singleton pattern trivially qualifies for every attribute
    /// (each match is one event). Patterns with negations never qualify:
    /// a forbidden event may carry a different key value and would be
    /// invisible to the match's partition.
    ///
    /// Returned in schema order; empty when nothing is provable.
    pub fn partition_keys(&self) -> &[AttrId] {
        &self.partition_keys
    }

    /// The pattern's interchangeable classes
    /// ([`crate::interchangeable_classes`]), computed once at compile.
    pub fn interchangeable_classes(&self) -> &[Vec<VarId>] {
        &self.interchangeable
    }

    /// `true` iff [`Self::partition_keys`] contains `attr`.
    pub fn is_partition_key(&self, attr: AttrId) -> bool {
        self.partition_keys.contains(&attr)
    }
}

/// See [`CompiledPattern::partition_keys`] for the proof obligation this
/// discharges.
fn infer_partition_keys(
    pattern: &Pattern,
    conditions: &[CompiledCondition],
    schema: &Schema,
) -> Vec<AttrId> {
    if pattern.has_negations() || pattern.num_vars() == 0 {
        return Vec::new();
    }
    let all_attrs = || (0..schema.len() as u16).map(AttrId).collect();
    if pattern.num_vars() == 1 {
        // One singleton variable: a match is a single event, which
        // trivially lives in one partition of any attribute. One *group*
        // variable is the opposite extreme: its bindings are mutually
        // unconstrained (conditions relate distinct variables, or an
        // event to itself), so nothing is provable.
        return if pattern.variables()[0].is_group() {
            Vec::new()
        } else {
            all_attrs()
        };
    }

    // Intern the (variable, attribute) nodes of the `=` variable
    // conditions and union the endpoints — the compiled mirror of
    // `equality_closure`, over dense `AttrId`s. Cross-attribute chains
    // (`a.X = b.Y`, `b.Y = c.X`) connect through the shared node.
    let mut nodes: Vec<(VarId, AttrId)> = Vec::new();
    let intern = |nodes: &mut Vec<(VarId, AttrId)>, n: (VarId, AttrId)| {
        nodes.iter().position(|&m| m == n).unwrap_or_else(|| {
            nodes.push(n);
            nodes.len() - 1
        })
    };
    let mut edges: Vec<(usize, usize)> = Vec::new();
    for c in conditions {
        if c.op != CmpOp::Eq {
            continue;
        }
        if let CompiledRhs::Attr { var, attr } = c.rhs {
            let a = intern(&mut nodes, (c.lhs_var, c.lhs_attr));
            let b = intern(&mut nodes, (var, attr));
            edges.push((a, b));
        }
    }
    let mut uf = UnionFind::new(nodes.len());
    for (a, b) in edges {
        uf.union(a, b);
    }

    let vars: Vec<VarId> = (0..pattern.num_vars() as u16).map(VarId).collect();
    (0..schema.len() as u16)
        .map(AttrId)
        .filter(|&attr| {
            let mut root = None;
            vars.iter().all(|&v| {
                match nodes.iter().position(|&n| n == (v, attr)) {
                    None => false, // v's value of `attr` is unconstrained
                    Some(n) => {
                        let r = uf.find(n);
                        *root.get_or_insert(r) == r
                    }
                }
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ses_event::{AttrType, Duration, Timestamp};

    fn schema() -> Schema {
        Schema::builder()
            .attr("ID", AttrType::Int)
            .attr("L", AttrType::Str)
            .attr("V", AttrType::Float)
            .build()
            .unwrap()
    }

    fn event(id: i64, l: &str, v: f64) -> Event {
        Event::new(
            Timestamp::new(0),
            vec![Value::from(id), Value::from(l), Value::from(v)],
        )
    }

    fn q1() -> Pattern {
        Pattern::builder()
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
            .unwrap()
    }

    #[test]
    fn compiles_q1() {
        let cp = q1().compile(&schema()).unwrap();
        assert_eq!(cp.conditions().len(), 7);
        assert_eq!(cp.const_conditions_of(VarId(0)).len(), 1);
        assert!(cp.every_var_constrained());
        assert!(cp.conditions()[4].other_var() == Some(VarId(1)));
    }

    #[test]
    fn rejects_unknown_attribute() {
        let p = Pattern::builder()
            .set(|s| s.var("a"))
            .cond_const("a", "NOPE", CmpOp::Eq, 1)
            .build()
            .unwrap();
        assert!(matches!(
            p.compile(&schema()),
            Err(PatternError::UnknownAttribute { attr }) if attr == "NOPE"
        ));
    }

    #[test]
    fn rejects_incomparable_types() {
        let p = Pattern::builder()
            .set(|s| s.var("a"))
            .cond_const("a", "L", CmpOp::Eq, 5)
            .build()
            .unwrap();
        let err = p.compile(&schema()).unwrap_err();
        assert!(
            matches!(err, PatternError::IncomparableTypes { .. }),
            "{err}"
        );

        let p = Pattern::builder()
            .set(|s| s.var("a").var("b"))
            .cond_vars("a", "L", CmpOp::Lt, "b", "V")
            .build()
            .unwrap();
        assert!(matches!(
            p.compile(&schema()),
            Err(PatternError::IncomparableTypes { .. })
        ));
    }

    #[test]
    fn rejects_nan_constant() {
        let p = Pattern::builder()
            .set(|s| s.var("a"))
            .cond_const("a", "V", CmpOp::Gt, f64::NAN)
            .build()
            .unwrap();
        assert!(matches!(
            p.compile(&schema()),
            Err(PatternError::NanConstant { .. })
        ));
    }

    #[test]
    fn numeric_cross_type_conditions_compile() {
        let p = Pattern::builder()
            .set(|s| s.var("a"))
            .cond_const("a", "V", CmpOp::Gt, 100) // Int const vs Float attr
            .build()
            .unwrap();
        let cp = p.compile(&schema()).unwrap();
        assert!(cp.conditions()[0].eval_const(&event(1, "C", 150.0)));
        assert!(!cp.conditions()[0].eval_const(&event(1, "C", 50.0)));
    }

    #[test]
    fn filter_predicates() {
        let cp = q1().compile(&schema()).unwrap();
        let c_event = event(1, "C", 10.0);
        let x_event = event(1, "X", 10.0);
        assert!(cp.satisfies_any_constant(&c_event));
        assert!(!cp.satisfies_any_constant(&x_event));
        assert!(cp.satisfies_var_constants(VarId(0), &c_event));
        assert!(!cp.satisfies_var_constants(VarId(2), &c_event)); // d wants 'D'
    }

    #[test]
    fn eval_vars_checks_both_events() {
        let cp = q1().compile(&schema()).unwrap();
        // condition 4: c.ID = p.ID
        let cond = &cp.conditions()[4];
        assert!(cond.eval_vars(&event(1, "C", 0.0), &event(1, "P", 0.0)));
        assert!(!cond.eval_vars(&event(1, "C", 0.0), &event(2, "P", 0.0)));
    }

    #[test]
    fn unsatisfiable_theta_flagged_at_compile_time() {
        let p = Pattern::builder()
            .set(|s| s.var("a"))
            .cond_const("a", "V", CmpOp::Gt, 10.0)
            .cond_const("a", "V", CmpOp::Lt, 5.0)
            .build()
            .unwrap();
        let cp = p.compile(&schema()).unwrap();
        assert!(!cp.is_satisfiable());
        assert!(cp.unsatisfiable_reason().unwrap().contains("a.V"));
        let cp = q1().compile(&schema()).unwrap();
        assert!(cp.is_satisfiable());
        assert!(cp.unsatisfiable_reason().is_none());
    }

    #[test]
    fn q1_partition_key_is_id() {
        let cp = q1().compile(&schema()).unwrap();
        let id = schema().attr_id("ID").unwrap();
        assert_eq!(cp.partition_keys(), &[id]);
        assert!(cp.is_partition_key(id));
        assert!(!cp.is_partition_key(schema().attr_id("L").unwrap()));
    }

    #[test]
    fn under_correlated_pattern_has_no_keys() {
        // b is not reached by the ID-equality graph.
        let p = Pattern::builder()
            .set(|s| s.var("a").var("b").var("c"))
            .cond_vars("a", "ID", CmpOp::Eq, "c", "ID")
            .within(Duration::ticks(5))
            .build()
            .unwrap();
        assert!(p.compile(&schema()).unwrap().partition_keys().is_empty());
    }

    #[test]
    fn non_equality_links_prove_nothing() {
        let p = Pattern::builder()
            .set(|s| s.var("a").var("b"))
            .cond_vars("a", "ID", CmpOp::Le, "b", "ID")
            .within(Duration::ticks(5))
            .build()
            .unwrap();
        assert!(p.compile(&schema()).unwrap().partition_keys().is_empty());
    }

    #[test]
    fn single_singleton_pattern_keys_every_attribute() {
        let p = Pattern::builder()
            .set(|s| s.var("a"))
            .cond_const("a", "L", CmpOp::Eq, "A")
            .within(Duration::ticks(5))
            .build()
            .unwrap();
        let cp = p.compile(&schema()).unwrap();
        assert_eq!(cp.partition_keys().len(), schema().len());
    }

    #[test]
    fn single_group_pattern_has_no_keys() {
        // p+'s bindings are mutually unconstrained: two events with
        // different IDs can form one match.
        let p = Pattern::builder()
            .set(|s| s.plus("p"))
            .cond_const("p", "L", CmpOp::Eq, "P")
            .within(Duration::ticks(5))
            .build()
            .unwrap();
        assert!(p.compile(&schema()).unwrap().partition_keys().is_empty());
    }

    #[test]
    fn cross_attribute_chain_connects_through_shared_node() {
        // a.ID = b.V and b.V = b.ID: both variables' ID nodes join one
        // class (through (b, V)), so ID is proven; V is not (a has no V
        // node).
        let p = Pattern::builder()
            .set(|s| s.var("a").var("b"))
            .cond_vars("a", "ID", CmpOp::Eq, "b", "V")
            .cond_vars("b", "V", CmpOp::Eq, "b", "ID")
            .within(Duration::ticks(5))
            .build()
            .unwrap();
        let cp = p.compile(&schema()).unwrap();
        assert_eq!(cp.partition_keys(), &[schema().attr_id("ID").unwrap()]);
    }

    #[test]
    fn negations_disable_partition_keys() {
        let p = Pattern::builder()
            .set(|s| s.var("a"))
            .negate("x")
            .set(|s| s.var("b"))
            .cond_vars("a", "ID", CmpOp::Eq, "b", "ID")
            .neg_cond_const("x", "L", CmpOp::Eq, "X")
            .within(Duration::ticks(5))
            .build()
            .unwrap();
        assert!(p.compile(&schema()).unwrap().partition_keys().is_empty());
    }

    #[test]
    fn compile_rejects_too_many_variables() {
        // `PatternBuilder::build` already enforces the limit; this
        // constructs the oversized pattern behind the builder's back to
        // pin the compile-time backstop (65 variables overflow the u64
        // state bitsets and the engine's type-precheck mask).
        use crate::variable::{Quantifier, Variable};
        use std::sync::Arc;
        let vars: Vec<Variable> = (0..65)
            .map(|i| Variable::new(Arc::from(format!("v{i}")), Quantifier::Singleton, 0))
            .collect();
        let sets = vec![(0..65).map(|i| VarId(i as u16)).collect()];
        let p = Pattern::from_parts(vars, sets, Vec::new(), Vec::new(), Duration::ticks(5));
        assert!(matches!(
            p.compile(&schema()),
            Err(PatternError::TooManyVariables(65))
        ));
    }

    #[test]
    fn unconstrained_variable_detected() {
        let p = Pattern::builder()
            .set(|s| s.var("a").var("b"))
            .cond_const("a", "L", CmpOp::Eq, "A")
            .build()
            .unwrap();
        let cp = p.compile(&schema()).unwrap();
        assert!(!cp.every_var_constrained());
    }
}
