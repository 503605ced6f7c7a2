//! High-level matching API.
//!
//! [`Matcher`] bundles automaton construction, execution options, and the
//! Definition-2 semantics filter behind one call:
//!
//! ```
//! use ses_event::{AttrType, CmpOp, Duration, Schema, Timestamp, Value, Relation};
//! use ses_pattern::Pattern;
//! use ses_core::Matcher;
//!
//! let schema = Schema::builder()
//!     .attr("L", AttrType::Str)
//!     .build()
//!     .unwrap();
//! let pattern = Pattern::builder()
//!     .set(|s| s.var("a").var("b"))
//!     .cond_const("a", "L", CmpOp::Eq, "A")
//!     .cond_const("b", "L", CmpOp::Eq, "B")
//!     .within(Duration::ticks(10))
//!     .build()
//!     .unwrap();
//!
//! let matcher = Matcher::compile(&pattern, &schema).unwrap();
//!
//! let mut rel = Relation::new(schema);
//! rel.push_values(Timestamp::new(0), [Value::from("B")]).unwrap();
//! rel.push_values(Timestamp::new(1), [Value::from("A")]).unwrap();
//!
//! let matches = matcher.find(&rel);
//! assert_eq!(matches.len(), 1); // B and A in any order
//! ```

use ses_event::{AttrId, Relation, Schema};
use ses_pattern::{CompiledPattern, Pattern};

use crate::automaton::Automaton;
use crate::engine::{scan, EventSelection};
use crate::matches::Match;
use crate::probe::{NoProbe, Probe};
use crate::semantics::{select, MatchSemantics};
use crate::CoreError;

/// How a [`Matcher`] splits its input into per-key scans.
///
/// Splitting is sound only when every match is confined to one value of
/// the partitioning attribute — see
/// [`CompiledPattern::partition_keys`] for the proof the matcher relies
/// on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PartitionMode {
    /// Never partition: one global scan (the default).
    #[default]
    Off,
    /// Partition by the first proven key, when the analyzer proves one;
    /// fall back to a global scan otherwise. Never an error.
    Auto,
    /// Partition by this attribute. Construction fails with
    /// [`CoreError::UnprovenPartitionKey`] unless the attribute is a
    /// proven key — an unproven split could silently lose
    /// cross-partition matches.
    Key(AttrId),
}

/// How a [`Matcher`] actually executes, resolved from
/// [`MatcherOptions::partition`] against the compiled pattern at
/// construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PartitionStrategy {
    /// One global scan.
    #[default]
    Global,
    /// One scan per value of this proven attribute, adjudicated
    /// together.
    Key(AttrId),
}

/// Configuration for a [`Matcher`].
#[derive(Debug, Clone)]
pub struct MatcherOptions {
    /// Event selection strategy. Default: the paper's
    /// skip-till-next-match; see [`EventSelection::SkipTillAnyMatch`]
    /// for the Γ-complete extension.
    pub selection: EventSelection,
    /// Match selection semantics. Default: [`MatchSemantics::Maximal`],
    /// the paper's worked query answers.
    pub semantics: MatchSemantics,
    /// Apply [`ses_pattern::equality_closure`] before compiling: derive
    /// the transitive closure of `=` conditions so every intermediate
    /// transition is fully correlated. Semantically conservative w.r.t.
    /// Definition 2, but under greedy skip-till-next-match it prevents
    /// instances from derailing on under-correlated patterns (strictly
    /// more matches found). Default: `false` (paper-faithful Θ).
    pub derive_equalities: bool,
    /// Run the full static-analyzer rewrite ([`ses_pattern::analyze`])
    /// before compiling: derived constant conditions added, redundant
    /// ones dropped. Derived constants let the §4.5 filter drop events
    /// when a variable without constants of its own — which admits every
    /// event — is correlated to a constant-constrained one. The analyzer uses the equality closure
    /// internally but does not inject its variable conditions, so this
    /// does *not* imply `derive_equalities`; with both set, the closed
    /// pattern is what gets analyzed.
    /// Under skip-till-any-match the match set is the unrewritten
    /// pattern's. Under skip-till-next-match it can differ, like with
    /// `derive_equalities`: a derived constant can keep a greedy run from
    /// absorbing an event that would derail it, so the rewritten pattern
    /// can find matches the unrewritten one misses.
    /// Default: `false` (paper-faithful Θ).
    pub propagate_constants: bool,
    /// Key-split execution mode of [`Matcher::find`]. Default:
    /// [`PartitionMode::Off`]. Batch-only: a [`crate::StreamMatcher`] or
    /// [`crate::PatternBank`] never partitions.
    pub partition: PartitionMode,
}

impl Default for MatcherOptions {
    fn default() -> Self {
        MatcherOptions {
            selection: EventSelection::SkipTillNextMatch,
            semantics: MatchSemantics::Maximal,
            derive_equalities: false,
            propagate_constants: false,
            partition: PartitionMode::Off,
        }
    }
}

/// A compiled, reusable matcher for one pattern over one schema.
#[derive(Debug, Clone)]
pub struct Matcher {
    automaton: Automaton,
    options: MatcherOptions,
    /// How [`Matcher::find`] executes, resolved from `options.partition`
    /// at construction.
    partition: PartitionStrategy,
}

/// Compiles `pattern` against `schema`, honoring the analyzer-rewrite
/// options: the equality closure, then constant propagation, each when
/// asked for — both, either, or the paper-faithful Θ verbatim. The
/// single compile path shared by
/// [`Matcher`], [`crate::StreamMatcher`], and [`crate::PatternBank`] —
/// the bank relies on it to build its predicate index from the *same*
/// compiled pattern its matchers run.
pub(crate) fn compile_pattern(
    pattern: &Pattern,
    schema: &Schema,
    options: &MatcherOptions,
) -> Result<CompiledPattern, CoreError> {
    let closed;
    let pattern = if options.derive_equalities {
        closed = ses_pattern::equality_closure(pattern);
        &closed
    } else {
        pattern
    };
    Ok(if options.propagate_constants {
        ses_pattern::analyze(pattern, schema)
            .pattern
            .compile(schema)?
    } else {
        pattern.compile(schema)?
    })
}

/// Resolves a [`PartitionMode`] against a compiled pattern's proven
/// keys.
fn resolve_partition(
    compiled: &CompiledPattern,
    options: &MatcherOptions,
) -> Result<PartitionStrategy, CoreError> {
    let auto_key = compiled.partition_keys().first().copied();
    match options.partition {
        PartitionMode::Off => Ok(PartitionStrategy::Global),
        PartitionMode::Auto => {
            Ok(auto_key.map_or(PartitionStrategy::Global, PartitionStrategy::Key))
        }
        PartitionMode::Key(attr) => {
            if attr.index() >= compiled.schema().len() {
                return Err(CoreError::UnprovenPartitionKey {
                    attr: attr.to_string(),
                    reason: "the schema has no such attribute".to_string(),
                });
            }
            let name = compiled.schema().attr_name(attr);
            if !compiled.is_partition_key(attr) {
                return Err(CoreError::UnprovenPartitionKey {
                    attr: name.to_string(),
                    reason: format!(
                        "the equality-condition graph on `{name}` does not connect every \
                         variable, so a match could span two `{name}` values"
                    ),
                });
            }
            Ok(PartitionStrategy::Key(attr))
        }
    }
}

impl Matcher {
    /// Compiles `pattern` against `schema` with default options.
    pub fn compile(pattern: &Pattern, schema: &Schema) -> Result<Matcher, CoreError> {
        Matcher::with_options(pattern, schema, MatcherOptions::default())
    }

    /// Compiles `pattern` against `schema` with explicit options.
    pub fn with_options(
        pattern: &Pattern,
        schema: &Schema,
        options: MatcherOptions,
    ) -> Result<Matcher, CoreError> {
        let compiled = compile_pattern(pattern, schema, &options)?;
        Matcher::from_compiled(compiled, options)
    }

    /// Builds a matcher from an already compiled pattern.
    fn from_compiled(
        compiled: CompiledPattern,
        options: MatcherOptions,
    ) -> Result<Matcher, CoreError> {
        let partition = resolve_partition(&compiled, &options)?;
        let automaton = Automaton::build(compiled)?;
        Ok(Matcher {
            automaton,
            options,
            partition,
        })
    }

    /// The underlying SES automaton.
    pub fn automaton(&self) -> &Automaton {
        &self.automaton
    }

    /// The matcher's options.
    pub fn options(&self) -> &MatcherOptions {
        &self.options
    }

    /// How [`Matcher::find`] executes — the configured [`PartitionMode`]
    /// resolved against the pattern's proven keys at construction.
    pub fn partition_strategy(&self) -> PartitionStrategy {
        self.partition
    }

    /// Finds all matching substitutions in `relation`.
    pub fn find(&self, relation: &Relation) -> Vec<Match> {
        self.find_with_probe(relation, &mut NoProbe)
    }

    /// Finds all matching substitutions, reporting engine events to
    /// `probe`.
    ///
    /// When the resolved [`PartitionStrategy`] splits the input by key,
    /// the per-key views are scanned one after another on this thread,
    /// all with `probe`: it receives the layout hooks (`partitions`,
    /// `partition_events`) and then every per-event hook of every view.
    pub fn find_with_probe<P: Probe>(&self, relation: &Relation, probe: &mut P) -> Vec<Match> {
        // A provably unsatisfiable Θ (analyzer SES001) matches nothing;
        // skip the scan entirely.
        if !self.automaton.pattern().is_satisfiable() {
            return Vec::new();
        }
        let selection = self.options.selection;
        let (raw, admitted) = match self.partition {
            PartitionStrategy::Key(key) => {
                crate::parallel::scan_partitioned(&self.automaton, relation, key, selection, probe)
            }
            PartitionStrategy::Global => scan(&self.automaton, relation, selection, probe),
        };
        let raw = crate::negation::filter_negations(raw, relation, self.automaton.pattern());
        select(
            raw,
            &admitted,
            relation,
            self.automaton.pattern(),
            self.options.semantics,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    #[test]
    fn paper_semantics_collapses_symmetric_runs() {
        // ⟨{x,y}⟩ same-type: raw runs {x/e1,y/e2} and {y/e1,x/e2}. Both
        // satisfy Definition 2 (neither violates cond. 4: the alternative
        // binding at e1 is not strictly inside (e1, e2)... it IS the min).
        let p = Pattern::builder()
            .set(|s| s.var("x").var("y"))
            .cond_const("x", "L", CmpOp::Eq, "M")
            .cond_const("y", "L", CmpOp::Eq, "M")
            .within(Duration::ticks(100))
            .build()
            .unwrap();
        let m = Matcher::compile(&p, &schema()).unwrap();
        let out = m.find(&rel(&[(0, 1, "M"), (1, 1, "M")]));
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn semantics_modes_on_group_extension() {
        // ⟨{p+},{b}⟩ on P P B: one accepting run per starting P.
        let p = Pattern::builder()
            .set(|s| s.plus("p"))
            .set(|s| s.var("b"))
            .cond_const("p", "L", CmpOp::Eq, "P")
            .cond_const("b", "L", CmpOp::Eq, "B")
            .within(Duration::ticks(100))
            .build()
            .unwrap();
        let r = rel(&[(0, 1, "P"), (1, 1, "P"), (2, 1, "B")]);

        let count = |sem: MatchSemantics| {
            let m = Matcher::with_options(
                &p,
                &schema(),
                MatcherOptions {
                    semantics: sem,
                    ..MatcherOptions::default()
                },
            )
            .unwrap();
            m.find(&r).len()
        };
        // Definition 2 keeps the suffix run {p/e2, b/e3} (different first
        // binding); Maximal drops it as a proper subset of the full match.
        assert_eq!(count(MatchSemantics::AllRuns), 2);
        assert_eq!(count(MatchSemantics::Definition2), 2);
        assert_eq!(count(MatchSemantics::Maximal), 1);

        let m = Matcher::compile(&p, &schema()).unwrap();
        let out = m.find(&r);
        assert_eq!(out[0].to_string(), "{v0/e1, v0/e2, v1/e3}");
    }

    /// Counts the events the §4.5 filter drops.
    #[derive(Default)]
    struct Filtered(usize);

    impl Probe for Filtered {
        fn event_filtered(&mut self) {
            self.0 += 1;
        }
    }

    #[test]
    fn a_variable_without_constants_admits_every_event() {
        let constrained = Pattern::builder()
            .set(|s| s.var("a"))
            .cond_const("a", "L", CmpOp::Eq, "A")
            .within(Duration::ticks(5))
            .build()
            .unwrap();
        let free = Pattern::builder()
            .set(|s| s.var("a").var("free"))
            .cond_const("a", "L", CmpOp::Eq, "A")
            .within(Duration::ticks(5))
            .build()
            .unwrap();
        let r = rel(&[(0, 1, "A"), (1, 1, "B")]);
        let filtered = |p: &Pattern| {
            let m = Matcher::compile(p, &schema()).unwrap();
            let mut probe = Filtered::default();
            let found = m.find_with_probe(&r, &mut probe).len();
            (
                m.automaton().pattern().every_var_constrained(),
                probe.0,
                found,
            )
        };
        assert_eq!(filtered(&constrained), (true, 1, 1));
        assert_eq!(filtered(&free), (false, 0, 1), "`free` admits the B");
    }

    #[test]
    fn equality_closure_rescues_star_correlated_patterns() {
        // Star: a.ID = hub.ID, b.ID = hub.ID — the a–b pair is
        // unconstrained, so a greedy instance in state {a} absorbs a
        // foreign b and derails. With derive_equalities the implied
        // a.ID = b.ID keeps it on track.
        let p = Pattern::builder()
            .set(|s| s.var("a").var("b").var("hub"))
            .cond_const("a", "L", CmpOp::Eq, "A")
            .cond_const("b", "L", CmpOp::Eq, "B")
            .cond_const("hub", "L", CmpOp::Eq, "H")
            .cond_vars("a", "ID", CmpOp::Eq, "hub", "ID")
            .cond_vars("b", "ID", CmpOp::Eq, "hub", "ID")
            .within(Duration::ticks(100))
            .build()
            .unwrap();
        // Patient 1's A, then patient 2's B (the trap), then patient 1's
        // B and H.
        let r = rel(&[(0, 1, "A"), (1, 2, "B"), (2, 1, "B"), (3, 1, "H")]);

        let plain = Matcher::compile(&p, &schema()).unwrap().find(&r);
        assert!(plain.is_empty(), "greedy star pattern derails");

        let closed = Matcher::with_options(
            &p,
            &schema(),
            MatcherOptions {
                derive_equalities: true,
                ..MatcherOptions::default()
            },
        )
        .unwrap();
        let found = closed.find(&r);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].to_string(), "{v0/e1, v1/e3, v2/e4}");

        // Propagation alone injects no variable condition and derails
        // like the plain pattern; with both flags the closure still
        // applies (it used to be dropped, finding nothing).
        let matches = |derive_equalities, propagate_constants| {
            let options = MatcherOptions {
                derive_equalities,
                propagate_constants,
                ..MatcherOptions::default()
            };
            let m = Matcher::with_options(&p, &schema(), options).unwrap();
            m.find(&r).iter().map(|m| m.to_string()).collect::<Vec<_>>()
        };
        assert!(matches(false, true).is_empty());
        assert_eq!(matches(true, true), ["{v0/e1, v1/e3, v2/e4}"]);
    }

    #[test]
    fn unsatisfiable_pattern_short_circuits() {
        let p = Pattern::builder()
            .set(|s| s.var("a"))
            .cond_const("a", "ID", CmpOp::Gt, 10)
            .cond_const("a", "ID", CmpOp::Lt, 5)
            .within(Duration::ticks(5))
            .build()
            .unwrap();
        let m = Matcher::compile(&p, &schema()).unwrap();
        assert!(!m.automaton().pattern().is_satisfiable());
        // No event can match (the engine is never even consulted).
        struct Panicking;
        impl Probe for Panicking {
            fn event_read(&mut self) {
                panic!("engine ran on an unsatisfiable pattern");
            }
        }
        let out = m.find_with_probe(&rel(&[(0, 1, "A"), (1, 7, "B")]), &mut Panicking);
        assert!(out.is_empty());
    }

    #[test]
    fn propagated_constants_rescue_the_event_filter() {
        // `b` carries no constant condition — only the correlation
        // b.ID = a.ID to the constant-constrained `a` — so it admits
        // every event and the §4.5 filter drops none. With
        // propagate_constants the derived `b.ID = 1` makes every variable
        // constrained, and the filter drops the other patient's event.
        let p = Pattern::builder()
            .set(|s| s.var("a"))
            .set(|s| s.var("b"))
            .cond_const("a", "ID", CmpOp::Eq, 1)
            .cond_const("a", "L", CmpOp::Eq, "A")
            .cond_vars("b", "ID", CmpOp::Eq, "a", "ID")
            .within(Duration::ticks(100))
            .build()
            .unwrap();

        let r = rel(&[(0, 1, "A"), (1, 1, "X"), (2, 2, "X")]);

        let plain = Matcher::compile(&p, &schema()).unwrap();
        assert!(!plain.automaton().pattern().every_var_constrained());
        let mut filtered = Filtered::default();
        let baseline = plain.find_with_probe(&r, &mut filtered);
        assert_eq!(filtered.0, 0, "`b` admits every event");

        let analyzed = Matcher::with_options(
            &p,
            &schema(),
            MatcherOptions {
                propagate_constants: true,
                ..MatcherOptions::default()
            },
        )
        .unwrap();
        assert!(analyzed.automaton().pattern().every_var_constrained());
        let mut filtered = Filtered::default();
        let found = analyzed.find_with_probe(&r, &mut filtered);
        assert_eq!(filtered.0, 1, "filter rescued");
        // Same matches either way.
        assert_eq!(
            found.iter().map(|m| m.to_string()).collect::<Vec<_>>(),
            baseline.iter().map(|m| m.to_string()).collect::<Vec<_>>(),
        );
        assert_eq!(found.len(), 1);
    }

    #[test]
    fn propagated_constants_can_change_a_next_match_answer() {
        // ⟨{c, p+}⟩ with c.ID = 1 and c.ID = p.ID. Unrewritten, the greedy
        // instance's `p+` absorbs patient 2's P (no condition ties `p` to
        // a value until `c` binds) and derails, so skip-till-next-match
        // finds nothing. The derived `p.ID = 1` keeps e2 out of `p+` and
        // the match survives. Skip-till-any-match keeps both branches, so
        // it finds the match either way.
        let p = Pattern::builder()
            .set(|s| s.var("c").plus("p"))
            .cond_const("c", "L", CmpOp::Eq, "C")
            .cond_const("p", "L", CmpOp::Eq, "P")
            .cond_const("c", "ID", CmpOp::Eq, 1)
            .cond_vars("c", "ID", CmpOp::Eq, "p", "ID")
            .within(Duration::ticks(10))
            .build()
            .unwrap();
        let r = rel(&[(1, 1, "P"), (2, 2, "P"), (3, 1, "C")]);
        let matches = |selection, semantics, propagate_constants| {
            let options = MatcherOptions {
                selection,
                semantics,
                propagate_constants,
                ..MatcherOptions::default()
            };
            let m = Matcher::with_options(&p, &schema(), options).unwrap();
            let out = m.find(&r);
            out.iter().map(|m| m.display_with(&p)).collect::<Vec<_>>()
        };
        for semantics in [
            MatchSemantics::Maximal,
            MatchSemantics::Definition2,
            MatchSemantics::AllRuns,
        ] {
            let next = EventSelection::SkipTillNextMatch;
            assert!(matches(next, semantics, false).is_empty(), "{semantics:?}");
            assert_eq!(
                matches(next, semantics, true),
                ["{p+/e1, c/e3}"],
                "{semantics:?}"
            );
            for propagate in [false, true] {
                assert_eq!(
                    matches(EventSelection::SkipTillAnyMatch, semantics, propagate),
                    ["{p+/e1, c/e3}"],
                    "{semantics:?} propagate={propagate}"
                );
            }
        }
    }

    #[test]
    fn matcher_is_reusable_across_relations() {
        let p = Pattern::builder()
            .set(|s| s.var("a"))
            .cond_const("a", "L", CmpOp::Eq, "A")
            .within(Duration::ticks(5))
            .build()
            .unwrap();
        let m = Matcher::compile(&p, &schema()).unwrap();
        assert_eq!(m.find(&rel(&[(0, 1, "A")])).len(), 1);
        assert_eq!(m.find(&rel(&[(0, 1, "B")])).len(), 0);
        assert_eq!(m.find(&rel(&[(0, 1, "A"), (100, 2, "A")])).len(), 2);
    }

    fn correlated_pair() -> Pattern {
        Pattern::builder()
            .set(|s| s.var("a"))
            .set(|s| s.var("b"))
            .cond_const("a", "L", CmpOp::Eq, "A")
            .cond_const("b", "L", CmpOp::Eq, "B")
            .cond_vars("a", "ID", CmpOp::Eq, "b", "ID")
            .within(Duration::ticks(10))
            .build()
            .unwrap()
    }

    #[test]
    fn auto_partition_uses_the_proven_key() {
        let m = Matcher::with_options(
            &correlated_pair(),
            &schema(),
            MatcherOptions {
                partition: PartitionMode::Auto,
                ..MatcherOptions::default()
            },
        )
        .unwrap();
        assert_eq!(
            m.partition_strategy(),
            PartitionStrategy::Key(schema().attr_id("ID").unwrap())
        );
    }

    #[test]
    fn auto_partition_falls_back_without_proof() {
        // Uncorrelated pattern: nothing provable, Auto runs global.
        let p = Pattern::builder()
            .set(|s| s.var("a"))
            .set(|s| s.var("b"))
            .cond_const("a", "L", CmpOp::Eq, "A")
            .cond_const("b", "L", CmpOp::Eq, "B")
            .within(Duration::ticks(10))
            .build()
            .unwrap();
        let m = Matcher::with_options(
            &p,
            &schema(),
            MatcherOptions {
                partition: PartitionMode::Auto,
                ..MatcherOptions::default()
            },
        )
        .unwrap();
        assert_eq!(m.partition_strategy(), PartitionStrategy::Global);
    }

    #[test]
    fn explicit_unproven_key_is_refused() {
        // L carries no cross-variable equality: partitioning by it could
        // split a's event from b's, so Key(L) must be rejected loudly.
        let err = Matcher::with_options(
            &correlated_pair(),
            &schema(),
            MatcherOptions {
                partition: PartitionMode::Key(schema().attr_id("L").unwrap()),
                ..MatcherOptions::default()
            },
        )
        .unwrap_err();
        match err {
            CoreError::UnprovenPartitionKey { attr, reason } => {
                assert_eq!(attr, "L");
                assert!(reason.contains("does not connect every"), "{reason}");
            }
            other => panic!("expected UnprovenPartitionKey, got {other:?}"),
        }

        // Out-of-schema attribute ids are refused, not panicked on.
        let err = Matcher::with_options(
            &correlated_pair(),
            &schema(),
            MatcherOptions {
                partition: PartitionMode::Key(AttrId(99)),
                ..MatcherOptions::default()
            },
        )
        .unwrap_err();
        assert!(err.to_string().contains("no such attribute"));

        // A proven explicit key is accepted.
        let m = Matcher::with_options(
            &correlated_pair(),
            &schema(),
            MatcherOptions {
                partition: PartitionMode::Key(schema().attr_id("ID").unwrap()),
                ..MatcherOptions::default()
            },
        )
        .unwrap();
        assert_eq!(
            m.partition_strategy(),
            PartitionStrategy::Key(schema().attr_id("ID").unwrap())
        );
    }
}
