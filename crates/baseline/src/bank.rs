//! The brute-force matcher: a bank of plain sequence automata executed in
//! lock-step (paper §5.2).
//!
//! For each variable sequence (one permutation per event set pattern) the
//! baseline builds an SES pattern of singleton event-set patterns
//! `⟨{v1}, …, {vk}⟩` carrying the original conditions and window, compiles
//! it through the same `ses-core` machinery, and then iterates the input
//! **once**, offering each event to every automaton — exactly the paper's
//! "executes all automata in parallel, i.e., iterates for each input event
//! over these automata". The measured `|Ω|` is the sum over the bank.
//!
//! # Semantic caveats (inherent to the brute-force approach)
//!
//! * **Group variables**: in a sequence automaton a group variable only
//!   loops at its own position, so its events must be *consecutive*
//!   (no other matching variable in between). SES patterns allow group
//!   bindings to interleave with other variables of the same set. The
//!   paper notes the sequence count "considerably increases" with group
//!   variables; [`BruteForce::is_exact`] is `false` for such patterns.
//! * **Timestamp ties**: the chain concatenation inserts strict
//!   `v'.T < v.T` constraints between *every* consecutive pair, so two
//!   same-set events with equal timestamps match the SES automaton but
//!   not the brute-force bank. Exactness additionally requires distinct
//!   timestamps (demonstrated in `tests/baseline_vs_ses.rs`).

use ses_core::{AdmittedLog, CoreError, ExecOptions, Execution, Match, NoProbe, Probe, RawMatch};
use ses_event::{Relation, Schema};
use ses_pattern::{Pattern, Rhs, VarId};

use crate::permute::{sequence_count, sequences};

/// The brute-force baseline matcher.
#[derive(Debug)]
pub struct BruteForce {
    pattern: Pattern,
    compiled: ses_pattern::CompiledPattern,
    automata: Vec<ses_core::Automaton>,
    /// `var_maps[j][i]` is the original-pattern [`VarId`] of chain
    /// automaton `j`'s variable `i` (chains re-number variables in
    /// sequence order).
    var_maps: Vec<Vec<VarId>>,
    options: ses_core::MatcherOptions,
}

impl BruteForce {
    /// Compiles one sequence automaton per permutation with default
    /// options.
    pub fn compile(pattern: &Pattern, schema: &Schema) -> Result<BruteForce, CoreError> {
        BruteForce::with_options(pattern, schema, ses_core::MatcherOptions::default())
    }

    /// Compiles the bank with explicit options.
    pub fn with_options(
        pattern: &Pattern,
        schema: &Schema,
        options: ses_core::MatcherOptions,
    ) -> Result<BruteForce, CoreError> {
        let mut automata = Vec::new();
        let mut var_maps = Vec::new();
        for seq in sequences(pattern) {
            let chain = chain_pattern(pattern, &seq)?;
            let compiled = chain.compile(schema)?;
            automata.push(ses_core::Automaton::build_with_limit(
                compiled,
                options.max_states,
            )?);
            var_maps.push(seq);
        }
        Ok(BruteForce {
            pattern: pattern.clone(),
            compiled: pattern.compile(schema)?,
            automata,
            var_maps,
            options,
        })
    }

    /// Number of automata in the bank (`|V1|!·…·|Vm|!`).
    pub fn num_automata(&self) -> usize {
        self.automata.len()
    }

    /// The compiled sequence automata.
    pub fn automata(&self) -> &[ses_core::Automaton] {
        &self.automata
    }

    /// `true` iff the bank is semantically equivalent to the SES automaton
    /// for relations with pairwise distinct timestamps (i.e. the pattern
    /// has no group variables).
    pub fn is_exact(&self) -> bool {
        self.pattern.group_vars().next().is_none()
    }

    /// Predicted bank size without compiling: `|V1|!·…·|Vm|!`.
    pub fn predicted_bank_size(pattern: &Pattern) -> u64 {
        sequence_count(pattern)
    }

    /// Finds all matching substitutions (union over the bank, deduplicated
    /// and passed through the configured match semantics).
    pub fn find(&self, relation: &Relation) -> Vec<Match> {
        self.find_with_probe(relation, &mut NoProbe)
    }

    /// Finds all matching substitutions, reporting engine events to
    /// `probe`. The bank executes in lock-step: `probe.omega` receives the
    /// **summed** `|Ω|` across all automata after each event, matching the
    /// paper's experiment-1 measurement.
    pub fn find_with_probe<P: Probe>(&self, relation: &Relation, probe: &mut P) -> Vec<Match> {
        let exec_opts = ExecOptions {
            selection: self.options.selection,
            flush_at_end: self.options.flush_at_end,
            max_instances: self.options.max_instances,
        };
        let mut executions: Vec<Execution<'_>> = self
            .automata
            .iter()
            .map(|a| Execution::new(a, relation, &exec_opts))
            .collect();

        let mut suppressed = SuppressOmega { inner: probe };
        for _ in 0..relation.len() {
            for exec in &mut executions {
                exec.step(&mut suppressed);
            }
            let total: usize = executions.iter().map(Execution::omega_len).sum();
            suppressed.inner.omega(total);
        }

        // Translate each chain automaton's local variable ids back to the
        // original pattern's ids before merging the banks' results.
        let mut raw: Vec<RawMatch> = Vec::new();
        for (exec, var_map) in executions.into_iter().zip(&self.var_maps) {
            for m in exec.finish(&mut suppressed).0 {
                let mut bindings: Vec<(VarId, ses_event::EventId)> = m
                    .bindings
                    .into_iter()
                    .map(|(v, e)| (var_map[v.index()], e))
                    .collect();
                bindings.sort_unstable_by_key(|&(var, ev)| (ev, var));
                raw.push(RawMatch { bindings });
            }
        }
        // Negations (gap constraints) are enforced on the remapped union
        // against the *original* pattern — the chains need no knowledge
        // of them.
        let raw = ses_core::filter_negations(raw, relation, &self.compiled);
        // The chains admitted under their own variable numbering; the
        // original pattern's verdicts come from its own admission pass.
        let admitted = AdmittedLog::of(&self.compiled, relation);
        ses_core::select(
            raw,
            &admitted,
            relation,
            &self.compiled,
            self.options.semantics,
        )
    }
}

/// Builds the chain pattern `⟨{v1}, …, {vk}⟩` for one variable sequence,
/// preserving quantifiers, conditions, and the window.
fn chain_pattern(
    pattern: &Pattern,
    sequence: &[ses_pattern::VarId],
) -> Result<Pattern, ses_pattern::PatternError> {
    let mut b = Pattern::builder();
    for &v in sequence {
        let var = pattern.var(v);
        let name = var.name().to_string();
        let group = var.is_group();
        b = b.set(move |s| {
            if group {
                s.plus(name.clone())
            } else {
                s.var(name.clone())
            }
        });
    }
    for c in pattern.conditions() {
        let lhs_name = pattern.var(c.lhs.var).name().to_string();
        b = match &c.rhs {
            Rhs::Const(v) => b.cond_const(lhs_name, c.lhs.attr.to_string(), c.op, v.clone()),
            Rhs::Attr(r) => b.cond_vars(
                lhs_name,
                c.lhs.attr.to_string(),
                c.op,
                pattern.var(r.var).name().to_string(),
                r.attr.to_string(),
            ),
        };
    }
    b.within(pattern.within()).build()
}

/// Forwards every probe callback except `omega`, which the bank reports
/// itself as the sum over all executions.
struct SuppressOmega<'p, P: Probe> {
    inner: &'p mut P,
}

impl<P: Probe> Probe for SuppressOmega<'_, P> {
    fn event_read(&mut self) {
        // The bank reads each event once per automaton; forwarding would
        // overcount. Reads are reported by the first automaton only —
        // callers interested in event counts should use relation length.
    }
    fn event_filtered(&mut self) {}
    fn instance_spawned(&mut self) {
        self.inner.instance_spawned();
    }
    fn instance_branched(&mut self) {
        self.inner.instance_branched();
    }
    fn instance_expired(&mut self) {
        self.inner.instance_expired();
    }
    fn transition_evaluated(&mut self) {
        self.inner.transition_evaluated();
    }
    fn transition_taken(&mut self) {
        self.inner.transition_taken();
    }
    fn match_emitted(&mut self) {
        self.inner.match_emitted();
    }
    fn omega(&mut self, _n: usize) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use ses_core::Matcher;
    use ses_event::{AttrType, CmpOp, Duration, Timestamp, Value};

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

    fn two_set_pattern() -> Pattern {
        Pattern::builder()
            .set(|s| s.var("c").var("p").var("d"))
            .set(|s| s.var("b"))
            .cond_const("c", "L", CmpOp::Eq, "C")
            .cond_const("p", "L", CmpOp::Eq, "P")
            .cond_const("d", "L", CmpOp::Eq, "D")
            .cond_const("b", "L", CmpOp::Eq, "B")
            .within(Duration::ticks(100))
            .build()
            .unwrap()
    }

    #[test]
    fn bank_size_matches_figure_10() {
        let bf = BruteForce::compile(&two_set_pattern(), &schema()).unwrap();
        assert_eq!(bf.num_automata(), 6);
        assert!(bf.is_exact());
        // Each chain automaton has 5 states (∅ + 4 variables) and 4
        // transitions.
        for a in bf.automata() {
            assert_eq!(a.num_states(), 5);
            assert_eq!(a.num_transitions(), 4);
        }
    }

    #[test]
    fn bank_finds_any_permutation_order() {
        let bf = BruteForce::compile(&two_set_pattern(), &schema()).unwrap();
        for order in [["C", "P", "D"], ["P", "D", "C"], ["D", "C", "P"]] {
            let r = rel(&[
                (0, 1, order[0]),
                (1, 1, order[1]),
                (2, 1, order[2]),
                (3, 1, "B"),
            ]);
            let ms = bf.find(&r);
            assert_eq!(ms.len(), 1, "order {order:?}");
            assert_eq!(ms[0].bindings().len(), 4);
        }
    }

    #[test]
    fn bank_agrees_with_ses_matcher() {
        let p = two_set_pattern();
        let bf = BruteForce::compile(&p, &schema()).unwrap();
        let ses = Matcher::compile(&p, &schema()).unwrap();
        let r = rel(&[
            (0, 1, "P"),
            (1, 1, "C"),
            (2, 1, "X"),
            (3, 1, "D"),
            (4, 1, "B"),
            (5, 1, "C"),
            (6, 1, "D"),
            (7, 1, "P"),
            (9, 1, "B"),
        ]);
        let mut a = bf.find(&r);
        let mut b = ses.find(&r);
        a.sort();
        b.sort();
        assert_eq!(a, b);
        assert!(!a.is_empty());
    }

    #[test]
    fn group_variable_bank_is_inexact() {
        let p = Pattern::builder()
            .set(|s| s.var("c").plus("p"))
            .set(|s| s.var("b"))
            .cond_const("c", "L", CmpOp::Eq, "C")
            .cond_const("p", "L", CmpOp::Eq, "P")
            .cond_const("b", "L", CmpOp::Eq, "B")
            .within(Duration::ticks(100))
            .build()
            .unwrap();
        let bf = BruteForce::compile(&p, &schema()).unwrap();
        assert!(!bf.is_exact());
        // Interleaved P C P: SES matches {p/e1, c/e2, p/e3, b/e4}; the
        // bank's two chains (c→p+→b, p+→c→b) cannot interleave and find
        // only sub-patterns.
        let r = rel(&[(0, 1, "P"), (1, 1, "C"), (2, 1, "P"), (3, 1, "B")]);
        let ses = Matcher::compile(&p, &schema()).unwrap();
        let full = ses
            .find(&r)
            .iter()
            .map(|m| m.bindings().len())
            .max()
            .unwrap();
        assert_eq!(full, 4); // c + two p's + b
        let bank_best = bf
            .find(&r)
            .iter()
            .map(|m| m.bindings().len())
            .max()
            .unwrap();
        assert!(bank_best < 4, "chains cannot interleave group bindings");
    }

    #[test]
    fn predicted_bank_size_saturates() {
        let mut b = Pattern::builder();
        b = b.set(|s| {
            for i in 0..25 {
                s.var(format!("v{i}"));
            }
            s
        });
        let p = b.build().unwrap();
        assert_eq!(BruteForce::predicted_bank_size(&p), u64::MAX);
    }
}
