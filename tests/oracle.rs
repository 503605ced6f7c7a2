//! Cross-validation against the naive reference oracle: `Γ` is
//! brute-force enumerated (every assignment of events to variables) and
//! the Definition-2 semantics are recomputed from scratch, independent of
//! any automaton machinery.

mod common;

use proptest::prelude::*;

use common::{correlated_group_pattern_strategy, pattern_strategy, relation_strategy, schema};
use ses::core::enumerate_candidates;
use ses::pattern::CompiledPattern;
use ses::prelude::*;

/// The oracle's condition-4 check (prefix-agreement formulation, see the
/// `ses-core::semantics` docs): γ is violated when some `γ' ∈ Γ` binds a
/// variable of γ to a strictly earlier in-extent event while agreeing
/// with γ on every binding before that event.
fn oracle_cond4(m: &[(VarId, EventId)], rel: &Relation, gamma: &[Vec<(VarId, EventId)>]) -> bool {
    let min_ts = rel.event(m[0].1).ts();
    let prefix_of = |x: &[(VarId, EventId)], cut: ses_event::Timestamp| -> Vec<(VarId, EventId)> {
        x.iter()
            .copied()
            .filter(|&(_, e)| rel.event(e).ts() < cut)
            .collect()
    };
    for &(var, event) in m {
        let bound_ts = rel.event(event).ts();
        for alt_idx in 0..rel.len() {
            let alt = EventId::from(alt_idx);
            let alt_ts = rel.event(alt).ts();
            if alt_ts <= min_ts || alt_ts >= bound_ts {
                continue;
            }
            if m.iter().any(|&(_, e)| e == alt) {
                continue;
            }
            let m_prefix = prefix_of(m, alt_ts);
            let violated = gamma
                .iter()
                .any(|other| other.contains(&(var, alt)) && prefix_of(other, alt_ts) == m_prefix);
            if violated {
                return false;
            }
        }
    }
    true
}

/// Recomputes the Definition-2 + Maximal answer from the full Γ.
fn oracle_answer(rel: &Relation, cp: &CompiledPattern) -> Vec<Match> {
    let gamma = enumerate_candidates(cp, rel, 100_000_000);
    let is_subset = |a: &[(VarId, EventId)], b: &[(VarId, EventId)]| {
        a.len() < b.len() && a.iter().all(|x| b.contains(x))
    };
    let survivors: Vec<&Vec<(VarId, EventId)>> = gamma
        .iter()
        .filter(|m| oracle_cond4(m, rel, &gamma))
        .filter(|m| {
            // Condition 5 against the full Γ.
            !gamma
                .iter()
                .any(|other| other[0] == m[0] && is_subset(m, other))
        })
        .collect();
    let mut out: Vec<Match> = survivors
        .iter()
        .filter(|m| !survivors.iter().any(|other| is_subset(m, other)))
        .map(|m| Match::from_bindings((*m).clone()))
        .collect();
    out.sort();
    out.dedup();
    out
}

fn any_match(semantics: MatchSemantics) -> MatcherOptions {
    MatcherOptions {
        selection: ses::core::EventSelection::SkipTillAnyMatch,
        semantics,
        ..MatcherOptions::default()
    }
}

/// Skip-till-any-match under Maximal returns the oracle's answer.
fn any_match_maximal_is_the_oracle(rel: &Relation, pat: &Pattern) -> Result<(), TestCaseError> {
    let schema = schema();
    let cp = pat.compile(&schema).unwrap();
    let m = Matcher::with_options(pat, &schema, any_match(MatchSemantics::Maximal)).unwrap();
    let mut got = m.find(rel);
    got.sort();
    prop_assert_eq!(got, oracle_answer(rel, &cp));
    Ok(())
}

/// Skip-till-any-match under AllRuns returns Γ, run for run.
fn any_match_is_gamma(rel: &Relation, pat: &Pattern) -> Result<(), TestCaseError> {
    let schema = schema();
    let cp = pat.compile(&schema).unwrap();
    let m = Matcher::with_options(pat, &schema, any_match(MatchSemantics::AllRuns)).unwrap();
    let mut got: Vec<Vec<(VarId, EventId)>> =
        m.find(rel).iter().map(|m| m.bindings().to_vec()).collect();
    got.sort();
    let mut gamma = enumerate_candidates(&cp, rel, 100_000_000);
    gamma.sort();
    prop_assert_eq!(got, gamma);
    Ok(())
}

/// The Known limit, pinned on the case the correlated-group generator
/// finds: `{v0_0+, v0_1+}` within 10, `v0_0` on `B`, `v0_1` on `A`,
/// `v0_0.ID = v0_1.ID`, over `B/1@2, B/2@3, A/1@5`. Greedy
/// skip-till-next-match lets the `B` loop absorb `B/2` before `v0_1`
/// binds, the run derails and nothing is found. Definition 2 — the
/// oracle, and skip-till-any-match — answers `{v0_0/e0, v0_1/e2}`.
#[test]
fn next_match_misses_a_correlated_group_match() {
    let pat = Pattern::builder()
        .set(|s| s.plus("v0_0").plus("v0_1"))
        .cond_const("v0_0", "L", CmpOp::Eq, "B")
        .cond_const("v0_1", "L", CmpOp::Eq, "A")
        .cond_vars("v0_0", "ID", CmpOp::Eq, "v0_1", "ID")
        .within(Duration::ticks(10))
        .build()
        .unwrap();
    let mut rel = Relation::new(schema());
    for (t, l, id) in [(2, "B", 1), (3, "B", 2), (5, "A", 1)] {
        rel.push_values(Timestamp::new(t), [Value::from(l), Value::from(id)])
            .unwrap();
    }
    let schema = schema();
    let cp = pat.compile(&schema).unwrap();
    let want = vec![Match::from_bindings(vec![
        (VarId(0), EventId(0)),
        (VarId(1), EventId(2)),
    ])];
    assert_eq!(oracle_answer(&rel, &cp), want);
    let any = Matcher::with_options(&pat, &schema, any_match(MatchSemantics::Maximal)).unwrap();
    assert_eq!(any.find(&rel), want);
    let next = Matcher::compile(&pat, &schema).unwrap();
    assert_eq!(next.find(&rel), Vec::<Match>::new());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The engine's Maximal answer equals the from-scratch oracle answer
    /// on tiny constant-condition patterns.
    #[test]
    fn engine_matches_oracle(rel in relation_strategy(), pat in pattern_strategy()) {
        let schema = schema();
        let cp = pat.compile(&schema).unwrap();
        let engine = Matcher::compile(&pat, &schema).unwrap();
        let mut got = engine.find(&rel);
        got.sort();
        let expected = oracle_answer(&rel, &cp);
        prop_assert_eq!(got, expected);
    }

    /// The gold standard: with complete candidate generation
    /// (skip-till-any-match), the engine's Maximal pipeline equals the
    /// from-scratch oracle for every pattern [`pattern_strategy`]
    /// generates — group variables and correlations, though never both
    /// at once; `any_match_maximal_equals_oracle_on_correlated_groups`
    /// covers that class.
    #[test]
    fn any_match_maximal_equals_oracle(rel in relation_strategy(), pat in pattern_strategy()) {
        any_match_maximal_is_the_oracle(&rel, &pat)?;
    }

    /// Skip-till-any-match candidate generation is *complete*: its raw
    /// runs are exactly the substitution space Γ.
    #[test]
    fn any_match_generates_exactly_gamma(rel in relation_strategy(), pat in pattern_strategy()) {
        any_match_is_gamma(&rel, &pat)?;
    }

    /// As `any_match_maximal_equals_oracle`, on a group variable
    /// correlated with a variable that can bind after it — the class of
    /// the paper's Q1, where skip-till-next-match is incomplete
    /// (`next_match_misses_a_correlated_group_match`).
    #[test]
    fn any_match_maximal_equals_oracle_on_correlated_groups(
        rel in relation_strategy(),
        pat in correlated_group_pattern_strategy(),
    ) {
        any_match_maximal_is_the_oracle(&rel, &pat)?;
    }

    /// As `any_match_generates_exactly_gamma`, on correlated group
    /// variables.
    #[test]
    fn any_match_generates_exactly_gamma_on_correlated_groups(
        rel in relation_strategy(),
        pat in correlated_group_pattern_strategy(),
    ) {
        any_match_is_gamma(&rel, &pat)?;
    }

    /// Every AllRuns result is in Γ.
    #[test]
    fn all_runs_are_in_gamma(rel in relation_strategy(), pat in pattern_strategy()) {
        let schema = schema();
        let cp = pat.compile(&schema).unwrap();
        let m = Matcher::with_options(
            &pat,
            &schema,
            MatcherOptions { semantics: MatchSemantics::AllRuns, ..MatcherOptions::default() },
        )
        .unwrap();
        let gamma = enumerate_candidates(&cp, &rel, 100_000_000);
        for mat in m.find(&rel) {
            prop_assert!(
                gamma.iter().any(|g| g.as_slice() == mat.bindings()),
                "{} not in Γ",
                mat
            );
        }
    }
}
